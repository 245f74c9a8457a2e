package endhost

// EpochTracker watches the boot generation counters of the switches a
// host's probes traverse — the end-host's only signal that a switch
// crash-restarted and silently wiped the soft state (rate registers,
// SRAM counters, breadcrumbs) this host had installed there.  Its
// users decode [Switch:Epoch] from their own echoes and feed each
// (switch id, epoch) pair to Observe.
type EpochTracker struct {
	last map[uint32]uint32

	// Changes counts detected epoch bumps.
	Changes uint64
}

// NewEpochTracker builds a tracker that has seen no switch.
func NewEpochTracker() *EpochTracker {
	return &EpochTracker{last: make(map[uint32]uint32)}
}

// Observe records that switchID currently reports epoch.  It returns
// true when this differs from the last observation of the same switch;
// the first observation establishes the baseline and is never a
// change.
func (t *EpochTracker) Observe(switchID, epoch uint32) bool {
	old, seen := t.last[switchID]
	t.last[switchID] = epoch
	if !seen || old == epoch {
		return false
	}
	t.Changes++
	return true
}
