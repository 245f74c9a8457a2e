package ndb

import (
	"testing"

	"repro/internal/obs"
)

// TestJourneyFromSpans checks the pure reconstruction: parser spans open
// hops, TCAM spans fill in the matched rule, link events are ignored.
func TestJourneyFromSpans(t *testing.T) {
	events := []obs.SpanEvent{
		{Stage: obs.StageLinkTx, Node: 7, UID: 1},
		{Stage: obs.StageParser, Node: 1, A: 3, UID: 1},
		{Stage: obs.StageLookupTCAM, Node: 1, A: 10, B: 2, UID: 1},
		{Stage: obs.StageEnqueue, Node: 1, UID: 1},
		{Stage: obs.StageLinkRx, Node: 8, UID: 1},
		{Stage: obs.StageParser, Node: 2, A: 0, UID: 1},
		// Hop 2 never reaches its lookup (e.g. dropped): stays zero.
	}
	j := JourneyFromSpans(events)
	if len(j) != 2 {
		t.Fatalf("hops = %d, want 2: %+v", len(j), j)
	}
	want0 := HopRecord{SwitchID: 1, InPort: 3, EntryID: 10, EntryVersion: 2}
	if j[0] != want0 {
		t.Fatalf("hop 0 = %+v, want %+v", j[0], want0)
	}
	if j[1] != (HopRecord{SwitchID: 2}) {
		t.Fatalf("hop 1 = %+v", j[1])
	}
}

// TestSpanJourneyMatchesTPPTrace runs the leaf-spine experiment with the
// lifecycle tracer attached and checks that the out-of-band span log
// reconstructs exactly the journey the in-band TPP recorded — the two
// telemetry mechanisms cross-validate.
func TestSpanJourneyMatchesTPPTrace(t *testing.T) {
	var cfg Config
	cfg.Metrics = obs.NewRegistry()
	cfg.Trace = obs.NewTracer(1 << 18)
	res := Run(cfg)

	if res.LastUID == 0 || len(res.LastTrace) == 0 {
		t.Fatal("experiment produced no in-band trace")
	}
	spans := cfg.Trace.Journey(res.LastUID)
	if len(spans) == 0 {
		t.Fatal("tracer recorded no spans for the last traced packet")
	}
	got := JourneyFromSpans(spans)
	if len(got) != len(res.LastTrace) {
		t.Fatalf("span journey has %d hops, TPP trace has %d:\nspans: %+v\ntpp:   %+v",
			len(got), len(res.LastTrace), got, res.LastTrace)
	}
	for i := range got {
		if got[i] != res.LastTrace[i] {
			t.Fatalf("hop %d: span %+v != tpp %+v", i, got[i], res.LastTrace[i])
		}
	}

	// The registry saw the fabric's activity: every switch counted
	// packets and the TCPU cycle histogram filled in.
	snap := cfg.Metrics.Snapshot(0)
	var tcpuObs uint64
	for _, m := range snap.Metrics {
		if m.Kind == obs.KindHistogram && len(m.Name) > 11 &&
			m.Name[len(m.Name)-11:] == "tcpu_cycles" {
			tcpuObs += m.Count
		}
	}
	if tcpuObs == 0 {
		t.Fatal("no TCPU cycle observations recorded")
	}
}
