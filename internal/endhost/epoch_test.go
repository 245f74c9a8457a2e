package endhost

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

// hopEpoch is one hop's (switch id, boot epoch) record in an
// epochCollect echo.
type hopEpoch struct{ SwitchID, Epoch uint32 }

// epochCollect builds the canonical two-stat collect program and fakes
// its execution over the given hops, the way a path of switches would
// fill it in.
func epochCollect(t *testing.T, maxHops int, hops []hopEpoch) *core.TPP {
	t.Helper()
	tpp, err := CollectProgram(
		[]mem.Addr{mem.SwitchBase + mem.SwitchID, mem.SwitchBase + mem.SwitchEpoch},
		maxHops, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hops {
		tpp.SetWord(i*2, h.SwitchID)
		tpp.SetWord(i*2+1, h.Epoch)
	}
	tpp.Ptr = uint16(len(hops) * 2 * 4)
	return tpp
}

func TestEpochTrackerObserve(t *testing.T) {
	tr := NewEpochTracker()

	// First sighting is a baseline, not a change.
	if tr.Observe(7, 0) {
		t.Fatal("first observation reported as a change")
	}
	if tr.Observe(7, 0) {
		t.Fatal("steady epoch reported as a change")
	}
	if !tr.Observe(7, 1) {
		t.Fatal("epoch bump not detected")
	}
	// A second switch has its own baseline.
	if tr.Observe(8, 5) {
		t.Fatal("new switch's first epoch reported as a change")
	}
	if !tr.Observe(8, 6) {
		t.Fatal("second switch's bump not detected")
	}

	if tr.Changes != 2 {
		t.Fatalf("Changes=%d, want 2", tr.Changes)
	}
	if e, ok := tr.last[7]; !ok || e != 1 {
		t.Fatalf("Last(7) = %d,%v, want 1,true", e, ok)
	}
	if e, ok := tr.last[8]; !ok || e != 6 {
		t.Fatalf("Last(8) = %d,%v, want 6,true", e, ok)
	}
}
