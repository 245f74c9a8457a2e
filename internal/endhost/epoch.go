package endhost

import (
	"repro/internal/core"
	"repro/internal/mem"
)

// HopEpoch is one hop's (switch id, boot epoch) pair decoded from a
// collect-probe echo whose program pushes both [Switch:SwitchID] and
// [Switch:Epoch].
type HopEpoch struct {
	SwitchID uint32
	Epoch    uint32
}

// HopEpochs decodes the per-hop (switch id, epoch) pairs from an
// executed stack-mode collect echo.  It inspects the program itself to
// find where in each per-hop frame the two statistics land, so it works
// with any pure-PUSH collect program that includes both addresses (in
// any order, alongside any other statistics).  It returns nil when the
// program is not of that shape — hop-mode TPPs, programs with stores,
// or collects that never read the epoch word.
func HopEpochs(e *core.TPP) []HopEpoch {
	if e == nil || e.Mode != core.AddrStack || len(e.Ins) == 0 {
		return nil
	}
	idIdx, epochIdx := -1, -1
	for i, in := range e.Ins {
		if in.Op != core.OpPUSH {
			return nil
		}
		switch mem.Addr(in.A) {
		case mem.SwitchBase + mem.SwitchID:
			idIdx = i
		case mem.SwitchBase + mem.SwitchEpoch:
			epochIdx = i
		}
	}
	if idIdx < 0 || epochIdx < 0 {
		return nil
	}
	frame := len(e.Ins)
	hops := e.Hop(frame)
	out := make([]HopEpoch, 0, hops)
	for h := 0; h < hops; h++ {
		out = append(out, HopEpoch{
			SwitchID: e.Word(h*frame + idIdx),
			Epoch:    e.Word(h*frame + epochIdx),
		})
	}
	return out
}

// EpochTracker watches the boot generation counters of the switches a
// host's probes traverse and fires a reconciliation callback when one
// changes — the end-host's only signal that a switch crash-restarted
// and silently wiped the soft state (rate registers, SRAM counters,
// breadcrumbs) this host had installed there.
//
// Attach it to a Prober with SetEpochTracker for automatic scanning of
// every echo, or feed observations directly with Observe from handlers
// that decode their own program layout.
type EpochTracker struct {
	last map[uint32]uint32

	// OnChange, when non-nil, runs for every detected epoch bump with
	// the switch id and the old and new epoch values.  The first
	// observation of a switch establishes its baseline and does not
	// fire the callback.
	OnChange func(switchID, oldEpoch, newEpoch uint32)

	// Changes counts detected epoch bumps; Observed counts all
	// observations fed in.
	Changes  uint64
	Observed uint64
}

// NewEpochTracker builds a tracker; onChange may be nil.
func NewEpochTracker(onChange func(switchID, oldEpoch, newEpoch uint32)) *EpochTracker {
	return &EpochTracker{last: make(map[uint32]uint32), OnChange: onChange}
}

// Observe records that switchID currently reports epoch.  It returns
// true (and fires OnChange) when this differs from the last observation
// of the same switch; the first observation is never a change.
func (t *EpochTracker) Observe(switchID, epoch uint32) bool {
	t.Observed++
	old, seen := t.last[switchID]
	t.last[switchID] = epoch
	if !seen || old == epoch {
		return false
	}
	t.Changes++
	if t.OnChange != nil {
		t.OnChange(switchID, old, epoch)
	}
	return true
}

// Last returns the most recently observed epoch of switchID.
func (t *EpochTracker) Last(switchID uint32) (uint32, bool) {
	e, ok := t.last[switchID]
	return e, ok
}

// ObserveEcho scans one executed echo for (switch id, epoch) pairs and
// feeds them to Observe; probes whose programs don't carry the epoch
// word are ignored.  It returns how many epoch bumps the echo revealed.
func (t *EpochTracker) ObserveEcho(e *core.TPP) int {
	bumps := 0
	for _, he := range HopEpochs(e) {
		if t.Observe(he.SwitchID, he.Epoch) {
			bumps++
		}
	}
	return bumps
}
