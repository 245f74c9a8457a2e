package inband

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
)

// resultDigest is the FNV-64 hash of a result's %+v: a pin that any
// moved field, counter or bucket breaks.
func resultDigest(v any) uint64 {
	h := fnv.New64()
	fmt.Fprintf(h, "%+v", v)
	return h.Sum64()
}

// TestHistScenario is the tentpole reconciliation: the dataplane-
// collected RTT histogram matches host-side ground truth bucket for
// bucket, every CSTORE is accounted exactly once across switch
// counter, metric and span — including across a crash-restart that
// wipes the window — and the whole run is deterministic per seed.
func TestHistScenario(t *testing.T) {
	// Each seed's whole result is pinned: a change that is not meant
	// to move the scenario must leave these digests as they are.
	pinned := map[int64]uint64{1: 0x85569d7ff2c11a43, 42: 0x7a8c58bc9e52c8fe}
	for _, seed := range []int64{1, 42} {
		a := RunHist(DefaultHist(seed))
		b := RunHist(DefaultHist(seed))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two runs diverged:\n%+v\nvs\n%+v", seed, a, b)
		}
		if d := resultDigest(a); d != pinned[seed] {
			t.Errorf("seed %d: result digest %#x, pinned %#x:\n%+v", seed, d, pinned[seed], a)
		}

		if a.Samples == 0 || a.TruthTotal != a.Samples {
			t.Fatalf("seed %d: %d samples but truth holds %d", seed, a.Samples, a.TruthTotal)
		}
		if !a.Drained || a.Pending != 0 {
			t.Fatalf("seed %d: writer not drained (pending %d)", seed, a.Pending)
		}

		// The crash happened and was noticed end to end.
		if a.Reboots != 1 {
			t.Fatalf("seed %d: %d reboots", seed, a.Reboots)
		}
		if a.Rebases == 0 {
			t.Fatalf("seed %d: writer never re-based across the wipe", seed)
		}
		if a.Discontinuities == 0 {
			t.Fatalf("seed %d: collector never flagged the wipe", seed)
		}

		// Bucket-for-bucket: truth == final SRAM == collector's
		// current-epoch view.
		if a.Truth != a.FinalSRAM {
			t.Fatalf("seed %d: truth != SRAM\ntruth %v\nsram  %v", seed, a.Truth, a.FinalSRAM)
		}
		if a.Truth != a.Current {
			t.Fatalf("seed %d: truth != collected\ntruth %v\ncoll  %v", seed, a.Truth, a.Current)
		}
		if nonZeroBuckets(a.Truth[:]) < 2 {
			t.Fatalf("seed %d: RTT spread too narrow to be interesting: %v", seed, a.Truth)
		}

		// CSTORE reconciliation, exact across the wipe: every commit is
		// either still in SRAM (CurrentTotal) or was destroyed by the
		// wipe (CapturedTotal); counter == metric == spans.
		if a.CurrentTotal+a.CapturedTotal != a.SwitchCommits {
			t.Fatalf("seed %d: current %d + wiped %d != commits %d",
				seed, a.CurrentTotal, a.CapturedTotal, a.SwitchCommits)
		}
		if int64(a.SwitchCommits) != a.CommitMetric || int(a.SwitchCommits) != a.CommitSpans {
			t.Fatalf("seed %d: commits %d, metric %d, spans %d",
				seed, a.SwitchCommits, a.CommitMetric, a.CommitSpans)
		}
		if a.CapturedTotal == 0 {
			t.Fatalf("seed %d: the wipe destroyed nothing — crash landed before any commit", seed)
		}

		// Sweep reconciliation: count == metric == spans; the folded
		// metric equals the cumulative accumulation; cumulative is
		// bounded by what was ever committed and never below current.
		if a.Sweeps == 0 || int64(a.Sweeps) != a.SweepsMetric || int(a.Sweeps) != a.SweepSpans {
			t.Fatalf("seed %d: sweeps %d, metric %d, spans %d",
				seed, a.Sweeps, a.SweepsMetric, a.SweepSpans)
		}
		if int64(a.CumulativeTotal) != a.FoldedMetric {
			t.Fatalf("seed %d: cumulative %d != folded metric %d",
				seed, a.CumulativeTotal, a.FoldedMetric)
		}
		var sumFolded uint64
		for _, f := range a.SweepFolded {
			sumFolded += f
		}
		if sumFolded != a.CumulativeTotal {
			t.Fatalf("seed %d: sweep series sums to %d, cumulative %d",
				seed, sumFolded, a.CumulativeTotal)
		}
		for i := range a.Cumulative {
			if a.Cumulative[i] < a.Current[i] {
				t.Fatalf("seed %d: bucket %d cumulative %d < current %d (negative delta)",
					seed, i, a.Cumulative[i], a.Current[i])
			}
		}
		if a.CumulativeTotal > a.CurrentTotal+a.CapturedTotal {
			t.Fatalf("seed %d: cumulative %d exceeds everything committed %d",
				seed, a.CumulativeTotal, a.CurrentTotal+a.CapturedTotal)
		}

		// Writer-side accounting: applied mirrors its metric; the loss
		// window forced retransmissions, whose duplicates were detected
		// rather than double-counted (the bucket match above proves it).
		if int64(a.Applied) != a.AppliedMetric {
			t.Fatalf("seed %d: applied %d != metric %d", seed, a.Applied, a.AppliedMetric)
		}
		if a.Retransmits == 0 {
			t.Fatalf("seed %d: loss window caused no retransmissions", seed)
		}
		if a.Adopted != 0 {
			t.Fatalf("seed %d: %d foreign SRAM values adopted in a single-writer window",
				seed, a.Adopted)
		}

		// Environment: verified tenant programs are never denied or
		// rejected, and nothing wrapped in the tracer.
		if a.Denied != 0 || a.NICRejected != 0 {
			t.Fatalf("seed %d: denied %d, NIC-rejected %d", seed, a.Denied, a.NICRejected)
		}
		if a.SpansDropped != 0 {
			t.Fatalf("seed %d: tracer dropped %d spans", seed, a.SpansDropped)
		}
	}
}

// TestHistScenarioNoFaults pins the clean-path identity: without a
// crash, commits == samples == everything, and nothing re-bases.  The
// bursty-loss window still runs: retransmission alone must neither
// duplicate a commit nor re-base the writer.
func TestHistScenarioNoFaults(t *testing.T) {
	cfg := DefaultHist(7)
	cfg.RebootAt = 0
	a := RunHist(cfg)
	if !a.Drained {
		t.Fatalf("writer not drained (pending %d)", a.Pending)
	}
	if a.Truth != a.Current || a.Truth != a.FinalSRAM {
		t.Fatalf("truth/current/SRAM diverge:\n%v\n%v\n%v", a.Truth, a.Current, a.FinalSRAM)
	}
	if a.SwitchCommits != a.Samples {
		t.Fatalf("%d commits for %d samples on the clean path", a.SwitchCommits, a.Samples)
	}
	if a.Rebases != 0 || a.Discontinuities != 0 || a.Duplicates != 0 {
		t.Fatalf("clean path saw rebases %d, discontinuities %d, duplicates %d",
			a.Rebases, a.Discontinuities, a.Duplicates)
	}
	if a.CumulativeTotal != a.CurrentTotal {
		t.Fatalf("cumulative %d != current %d without a wipe", a.CumulativeTotal, a.CurrentTotal)
	}
}

// TestSpinScenario: the passive observer's histogram equals the
// client's own flip-interval measurements exactly, reconciled across
// SRAM, collector sweeps, switch counters, metrics and spans.
func TestSpinScenario(t *testing.T) {
	a := RunSpin()
	b := RunSpin()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs diverged:\n%+v\nvs\n%+v", a, b)
	}
	if d, pinned := resultDigest(a), uint64(0x7ba37b23356169b1); d != pinned {
		t.Errorf("result digest %#x, pinned %#x:\n%+v", d, pinned, a)
	}

	if a.Flips == 0 || a.TruthTotal != a.Flips {
		t.Fatalf("%d flips but truth holds %d", a.Flips, a.TruthTotal)
	}
	if a.Truth != a.SRAM {
		t.Fatalf("observer diverged from client truth\ntruth %v\nsram  %v",
			a.Truth, a.SRAM)
	}
	if a.Truth != a.Current || a.Truth != a.Cumulative {
		t.Fatalf("collector diverged from truth\ntruth %v\ncur %v\ncum %v",
			a.Truth, a.Current, a.Cumulative)
	}
	if nonZeroBuckets(a.Truth[:]) < 2 {
		t.Fatalf("interval spread too narrow: %v", a.Truth)
	}

	if a.Edges != a.Flips || a.Samples != a.Flips {
		t.Fatalf("flips %d, edges %d, samples %d", a.Flips, a.Edges, a.Samples)
	}
	if int64(a.Edges) != a.EdgesMetric || int(a.Edges) != a.EdgeSpans {
		t.Fatalf("edges %d, metric %d, spans %d",
			a.Edges, a.EdgesMetric, a.EdgeSpans)
	}
	if int64(a.Samples) != a.SamplesMetric {
		t.Fatalf("samples %d != metric %d", a.Samples, a.SamplesMetric)
	}
	if a.Sweeps == 0 || int(a.Sweeps) != a.SweepSpans {
		t.Fatalf("sweeps %d, spans %d", a.Sweeps, a.SweepSpans)
	}
	if a.Discontinuities != 0 {
		t.Fatalf("%d discontinuities without a crash", a.Discontinuities)
	}
	if a.SpansDropped != 0 {
		t.Fatalf("tracer dropped %d spans", a.SpansDropped)
	}
}

func nonZeroBuckets(b []uint64) int {
	n := 0
	for _, v := range b {
		if v != 0 {
			n++
		}
	}
	return n
}
