package ndb

import (
	"testing"

	"repro/internal/core"
)

func rec(sw, entry, ver uint32) HopRecord {
	return HopRecord{SwitchID: sw, EntryID: entry, EntryVersion: ver}
}

func exp(sw, entry, ver uint32) Expectation {
	return Expectation{SwitchID: sw, EntryID: entry, EntryVersion: ver}
}

func TestVerifyConforming(t *testing.T) {
	trace := []HopRecord{rec(1, 10, 1), rec(2, 20, 1), rec(3, 30, 1)}
	want := []Expectation{exp(1, 10, 1), exp(2, 20, 1), exp(3, 30, 1)}
	if v := Verify(trace, want); len(v) != 0 {
		t.Fatalf("conforming trace flagged: %v", v)
	}
}

func TestVerifyWrongSwitch(t *testing.T) {
	trace := []HopRecord{rec(1, 10, 1), rec(9, 20, 1), rec(3, 30, 1)}
	want := []Expectation{exp(1, 10, 1), exp(2, 20, 1), exp(3, 30, 1)}
	v := Verify(trace, want)
	if len(v) != 1 || v[0].Kind != WrongSwitch || v[0].Hop != 1 {
		t.Fatalf("violations: %v", v)
	}
}

func TestVerifyWrongEntryAndStale(t *testing.T) {
	trace := []HopRecord{rec(1, 11, 1), rec(2, 20, 5)}
	want := []Expectation{exp(1, 10, 1), exp(2, 20, 1)}
	v := Verify(trace, want)
	if len(v) != 2 {
		t.Fatalf("violations: %v", v)
	}
	if v[0].Kind != WrongEntry || v[1].Kind != StaleEntry {
		t.Fatalf("kinds: %v %v", v[0].Kind, v[1].Kind)
	}
}

func TestVerifyPathLength(t *testing.T) {
	want := []Expectation{exp(1, 10, 1), exp(2, 20, 1)}
	v := Verify([]HopRecord{rec(1, 10, 1)}, want)
	if len(v) != 1 || v[0].Kind != PathTooShort {
		t.Fatalf("short path: %v", v)
	}
	v = Verify([]HopRecord{rec(1, 10, 1), rec(2, 20, 1), rec(3, 1, 1)}, want)
	if len(v) != 1 || v[0].Kind != PathTooLong {
		t.Fatalf("long path: %v", v)
	}
}

func TestVerifyLoop(t *testing.T) {
	trace := []HopRecord{rec(1, 10, 1), rec(2, 20, 1), rec(1, 10, 1)}
	want := []Expectation{exp(1, 10, 1), exp(2, 20, 1), exp(3, 30, 1)}
	v := Verify(trace, want)
	found := false
	for _, x := range v {
		if x.Kind == LoopDetected {
			found = true
		}
	}
	if !found {
		t.Fatalf("loop not detected: %v", v)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Kind: WrongSwitch, Hop: 1, Got: rec(9, 1, 1), Want: exp(2, 1, 1)}
	s := v.String()
	if s == "" || len(s) < 20 {
		t.Fatalf("String() = %q", s)
	}
}

func TestTraceProgramRoundTrip(t *testing.T) {
	tpp := TraceProgram(3)
	if len(tpp.Ins) != 4 || tpp.MemWords() != 12 {
		t.Fatalf("program shape: %d ins, %d words", len(tpp.Ins), tpp.MemWords())
	}
	// Simulate two hops of execution results.
	vals := []uint32{1, 10, 0, 1, 2, 20, 3, 1}
	for i, v := range vals {
		tpp.SetWord(i, v)
	}
	tpp.Ptr = uint16(len(vals) * 4)
	trace := ParseTrace(tpp)
	if len(trace) != 2 {
		t.Fatalf("trace hops: %d", len(trace))
	}
	if trace[0] != (HopRecord{SwitchID: 1, EntryID: 10, InPort: 0, EntryVersion: 1}) {
		t.Fatalf("hop 0: %+v", trace[0])
	}
	if trace[1] != (HopRecord{SwitchID: 2, EntryID: 20, InPort: 3, EntryVersion: 1}) {
		t.Fatalf("hop 1: %+v", trace[1])
	}
}

func TestInstrument(t *testing.T) {
	pkt := &core.Packet{Eth: core.Ethernet{Type: core.EtherTypeIPv4}}
	Instrument(pkt, 5)
	if pkt.TPP == nil || pkt.Eth.Type != core.EtherTypeTPP {
		t.Fatal("not instrumented")
	}
}

func TestExperimentDetectsInjectedMisconfiguration(t *testing.T) {
	res := Run(Config{})

	// Phase 1: the conforming fabric produces clean traces only.
	if res.CleanViolations != 0 {
		t.Fatalf("clean phase produced %d violations: %v",
			res.CleanViolations, res.BadViolations)
	}
	if res.CleanTraces == 0 {
		t.Fatal("no clean traces collected")
	}

	// Phase 2: every post-injection packet is flagged, with both the
	// stale entry at the rerouted leaf and the wrong switch at the
	// spine.
	if res.BadTraces == 0 {
		t.Fatal("misconfiguration not detected")
	}
	if res.ViolationKinds[StaleEntry] == 0 {
		t.Fatalf("no stale-entry violations: %v", res.ViolationKinds)
	}
	if res.ViolationKinds[WrongSwitch] == 0 {
		t.Fatalf("no wrong-switch violations: %v", res.ViolationKinds)
	}

	// The TPP journey matches the packet-copy baseline's journey.
	if !res.JourneysAgree {
		t.Fatal("TPP and baseline journeys disagree")
	}

	// Overhead shape: the baseline generates one extra packet per hop
	// per packet; TPPs generate zero extra packets.
	if res.BaselineCopies == 0 {
		t.Fatal("baseline produced no copies")
	}
	wantMin := uint64(res.CleanTraces+res.BadTraces) * 3 // 3 hops
	if res.BaselineCopies < wantMin {
		t.Fatalf("baseline copies = %d, want >= %d", res.BaselineCopies, wantMin)
	}
	if res.TPPInBandBytes == 0 {
		t.Fatal("TPP overhead not accounted")
	}
}

func TestExperimentDeterminism(t *testing.T) {
	a := Run(Config{})
	b := Run(Config{})
	if a.CleanTraces != b.CleanTraces || a.BadTraces != b.BadTraces ||
		a.BaselineCopies != b.BaselineCopies {
		t.Fatal("same seed produced different results")
	}
}
