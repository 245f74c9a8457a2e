package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {0.9, 46}, {1, 50}, {0.25, 20},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(xs, n=4) returns, since the acceptance driver
// computes its spreads with that.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{9, 1, 7, 3, 5}, 2, 5, 8},
		{[]float64{2.5, 1.5}, 1.25, 2, 2.75},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 2, 4, 5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// warmupDigest sets a workload up and returns the digest of its warm-up.
func warmupDigest(t *testing.T, name string, seed int64) string {
	t.Helper()
	w := findWorkload(name)
	inst := w.new(seed, nil)
	for i := 0; i < w.warmup; i++ {
		if failed := inst.step(i, nil); failed != 0 {
			t.Fatalf("%s seed %d: %d operations failed in warm-up step %d", name, seed, failed, i)
		}
	}
	return inst.endWarmup()
}

func TestDigestStableAndSeedSensitive(t *testing.T) {
	const name = "tpp_write_mix3"
	a, b := warmupDigest(t, name, 1), warmupDigest(t, name, 1)
	if a != b {
		t.Errorf("%s: seed 1 digests differ within one process: %s vs %s", name, a, b)
	}
	if c := warmupDigest(t, name, 2); c == a {
		t.Errorf("%s: seeds 1 and 2 give the same digest %s; the seed does not reach the inputs", name, a)
	}
}

// TestSmoke runs every workload untraced at two timed steps, checking
// outputs, the seed-1 goldens and the shape of the result against
// BENCHMARK.json — so `go test ./...` keeps the harness compiling and
// correct.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver has %d", len(spec.Workloads), len(workloads))
	}
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, driver says %q", i, spec.Workloads[i].Name, w.name)
		}
		if _, ok := gold["1"][w.name]; !ok {
			t.Errorf("%s: no seed-1 golden digest", w.name)
		}
		r := runOne(w, options{seed: 1, steps: 2}, gold)
		for _, p := range r.problems {
			t.Errorf("%s: %s", w.name, p)
		}
		res := r.result()
		if !res.Correct || res.Failed != 0 || res.Attempted != (setupReps*w.warmup+2)*w.batch {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.name, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d", w.name, len(res.Metrics), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			got, ok := res.Metrics[m.Name]
			switch {
			case !nameOK.MatchString(m.Name):
				t.Errorf("metric name %q is outside the allowed alphabet", m.Name)
			case !ok:
				t.Errorf("%s: end-to-end metric %s missing", w.name, m.Name)
			case got.Unit != m.Unit || got.Unit == "":
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
			case !(got.Value > 0):
				t.Errorf("%s: %s = %v, want > 0", w.name, m.Name, got.Value)
			}
		}
	}

	// The per-layer list is static; check it without paying for a traced run.
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the driver has %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m := spec.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || !nameOK.MatchString(m.Name) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], driver has %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}

// TestTracedRun drives one traced run of tpp_write_mix3 end to end:
// every per-layer metric reported, spans recorded, and the predictions
// the README records for that workload hold.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every layer probe")
	}
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	w := findWorkload("tpp_write_mix3")
	r := runOne(w, options{seed: 1, steps: 4 * traceChunk, trace: true, outDir: t.TempDir()}, gold)
	for _, p := range r.problems {
		t.Errorf("%s", p)
	}
	res := r.result()
	if !res.Correct {
		t.Errorf("traced run incorrect: %d of %d failed", res.Failed, res.Attempted)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("per-layer metric %s missing", d.name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(perLayer))
	}
	v := func(name string) float64 { return res.Metrics[name].Value }
	if got := v("guard.denied_share"); math.Abs(got-1.0/16) > 0.01 {
		t.Errorf("guard.denied_share = %v, want about 1/16", got)
	}
	if got := v("asic.prog_cache_hit_ratio"); !(got > 0.5 && got < 1) {
		t.Errorf("asic.prog_cache_hit_ratio = %v, want misses beside hits", got)
	}
	if got := v("tcpu.cstore_commit_ratio"); !(got > 0.6 && got < 0.8) {
		t.Errorf("tcpu.cstore_commit_ratio = %v, want about 15/16 of 3/4", got)
	}
	if v("obs.spans_per_pkt") != 0 || v("asic.tpps_executed") == 0 || v("driver.run_ns_per_pkt") <= 0 {
		t.Errorf("unexpected counts: spans/pkt %v, tpps executed %v, run ns/pkt %v",
			v("obs.spans_per_pkt"), v("asic.tpps_executed"), v("driver.run_ns_per_pkt"))
	}
	if len(r.tr.rec.spans) == 0 || r.tr.rec.spans[0].Name != "workload" {
		t.Errorf("span tree does not start at the workload span")
	}
}
