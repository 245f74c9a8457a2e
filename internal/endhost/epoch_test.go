package endhost

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
)

// epochCollect builds the canonical two-stat collect program and fakes
// its execution over the given hops, the way a path of switches would
// fill it in.
func epochCollect(t *testing.T, maxHops int, hops []HopEpoch) *core.TPP {
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

func TestHopEpochsDecode(t *testing.T) {
	want := []HopEpoch{{SwitchID: 3, Epoch: 0}, {SwitchID: 9, Epoch: 2}}
	got := HopEpochs(epochCollect(t, 4, want))
	if len(got) != len(want) {
		t.Fatalf("decoded %d hops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hop %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Programs of the wrong shape must decode to nothing rather than
	// misread packet memory.
	noEpoch, err := CollectProgram([]mem.Addr{mem.SwitchBase + mem.SwitchID}, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if hops := HopEpochs(noEpoch); hops != nil {
		t.Fatalf("collect without the epoch word decoded %d hops", len(hops))
	}
	withStore := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.SwitchBase + mem.SwitchEpoch)},
		{Op: core.OpSTORE, A: uint16(mem.SRAMBase), B: 0},
	}, 4)
	if hops := HopEpochs(withStore); hops != nil {
		t.Fatalf("non-pure-PUSH program decoded %d hops", len(hops))
	}
	if hops := HopEpochs(nil); hops != nil {
		t.Fatal("nil TPP decoded hops")
	}
}

func TestEpochTrackerObserve(t *testing.T) {
	type change struct{ id, old, new uint32 }
	var fired []change
	tr := NewEpochTracker(func(id, old, new uint32) {
		fired = append(fired, change{id, old, new})
	})

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

	if tr.Changes != 2 || tr.Observed != 5 {
		t.Fatalf("Changes=%d Observed=%d, want 2 and 5", tr.Changes, tr.Observed)
	}
	want := []change{{7, 0, 1}, {8, 5, 6}}
	if len(fired) != len(want) {
		t.Fatalf("callback fired %d times, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("callback %d = %+v, want %+v", i, fired[i], want[i])
		}
	}
	if e, ok := tr.last[7]; !ok || e != 1 {
		t.Fatalf("Last(7) = %d,%v, want 1,true", e, ok)
	}
}

// TestProberScansEchoes feeds crafted echoes straight into the prober's
// echo handler and checks the attached tracker sees every hop — even on
// echoes whose cookie was already superseded.
func TestProberScansEchoes(t *testing.T) {
	sim := netsim.New(1)
	a, b, _ := lossyPair(sim, 8_000_000)
	_ = b
	p := NewProber(a)
	tr := NewEpochTracker(nil)
	p.SetEpochTracker(tr)

	echoPkt := func(cookie uint32, hops []HopEpoch) *core.Packet {
		payload := epochCollect(t, 4, hops).AppendTo(nil)
		payload = binary.BigEndian.AppendUint32(payload, cookie)
		return &core.Packet{Payload: payload}
	}

	// A matched probe's echo is scanned.
	var echoed *core.TPP
	cookie, ok := p.ProbeCfg(core.MACFromUint64(2), core.IPv4Addr(10, 0, 0, 2),
		probeProg(), ProbeConfig{}, func(e *core.TPP) { echoed = e.Clone() }, nil)
	if !ok {
		t.Fatal("probe not registered")
	}
	p.onEcho(echoPkt(cookie, []HopEpoch{{SwitchID: 1, Epoch: 0}}))
	if echoed == nil {
		t.Fatal("echo callback did not run")
	}
	// An unmatched (superseded) echo still feeds the tracker.
	p.onEcho(echoPkt(0xdead, []HopEpoch{{SwitchID: 1, Epoch: 3}}))

	if tr.Observed != 2 || tr.Changes != 1 {
		t.Fatalf("Observed=%d Changes=%d, want 2 and 1", tr.Observed, tr.Changes)
	}
	if e := tr.last[1]; e != 3 {
		t.Fatalf("Last(1) = %d, want 3", e)
	}
}
