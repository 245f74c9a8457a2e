package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	var tr *Tracer
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(5)
		h.Observe(1234)
		tr.Record(SpanEvent{At: 1, UID: 2, Stage: StageEnqueue})
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocates: %v allocs/op", allocs)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Len() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if s := r.Snapshot(0); len(s.Metrics) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("switch/1/packets")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("switch/1/packets") != c {
		t.Fatal("counter handle not idempotent")
	}
	g := r.Gauge("switch/1/rate")
	g.Set(100)
	g.Set(70)
	if g.Value() != 70 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram()
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1000} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %d", h.Max())
	}
	if h.Sum() != 1025 {
		t.Fatalf("sum = %d", h.Sum())
	}
	// Bucket layout: 0 -> b0, 1 -> b1, {2,3} -> b2, {4..7} -> b3,
	// {8..15} -> b4, 1000 -> b10.
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 10: 1}
	for i := 0; i < NumBuckets; i++ {
		if got := h.Bucket(i); got != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	if q := h.Quantile(1); q != 1000 {
		t.Fatalf("p100 = %d", q)
	}
	if q := h.Quantile(0.5); q != 3 {
		t.Fatalf("p50 = %d (want upper edge of bucket 2)", q)
	}
	if BucketLow(3) != 4 || BucketHigh(3) != 7 {
		t.Fatalf("bucket 3 bounds [%d,%d]", BucketLow(3), BucketHigh(3))
	}
}

// TestHistogramConcurrent holds the single-writer contract: metrics are
// plain words, so goroutines do not share a histogram or a registry, and
// eight that each drive their own are exact (make race checks that no
// word is shared underneath).
func TestHistogramConcurrent(t *testing.T) {
	const workers, n = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg := NewRegistry()
			h := reg.Histogram("h")
			for i := 0; i < n; i++ {
				h.Observe(uint64(w*n + i))
			}
			want := uint64(w*n*n + n*(n-1)/2)
			if m, _ := reg.Snapshot(0).Get("h"); m.Count != n || m.Sum != want || m.Max != uint64(w*n+n-1) {
				t.Errorf("worker %d: %+v, want count %d sum %d max %d", w, m, n, want, w*n+n-1)
			}
		}()
	}
	wg.Wait()
}

func TestSnapshotAndDiff(t *testing.T) {
	r := NewRegistry()
	r.Counter("a/packets").Add(10)
	r.Gauge("a/rate").Set(42)
	r.Histogram("a/depth").Observe(100)

	before := r.Snapshot(1000)
	r.Counter("a/packets").Add(5)
	r.Gauge("a/rate").Set(40)
	r.Histogram("a/depth").Observe(200)
	r.Histogram("a/depth").Observe(100)
	after := r.Snapshot(2000)

	if m, ok := after.Get("a/packets"); !ok || m.Value != 15 {
		t.Fatalf("after counter: %+v", m)
	}
	if m, _ := before.Get("a/packets"); m.Value != 10 {
		t.Fatalf("before counter = %d: a snapshot is a copy", m.Value)
	}
	if m, _ := after.Get("a/rate"); m.Value != 40 {
		t.Fatalf("after gauge = %d", m.Value)
	}
	m, _ := after.Get("a/depth")
	if m.Count != 3 || m.Sum != 400 || m.Max != 200 {
		t.Fatalf("after histogram: %+v", m)
	}
	var n uint64
	for _, b := range m.Buckets {
		n += b.N
	}
	if n != 3 {
		t.Fatalf("buckets hold %d observations: %+v", n, m.Buckets)
	}
}

func TestSnapshotExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("sw/pkts").Add(3)
	r.Histogram("sw/depth").Observe(5)
	s := r.Snapshot(7)

	var jb strings.Builder
	if err := s.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl lines: %v", lines)
	}
	var m Metric
	if err := json.Unmarshal([]byte(lines[1]), &m); err != nil {
		t.Fatal(err)
	}
	if m.Name != "sw/pkts" || m.Kind != KindCounter || m.Value != 3 || m.AtNs != 7 {
		t.Fatalf("decoded metric: %+v", m)
	}
}

func TestTracerRingAndJourney(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Record(SpanEvent{At: int64(i), UID: uint64(i % 2), Stage: StageParser})
	}
	if tr.Len() != 4 || tr.Total() != 6 || tr.Dropped() != 2 {
		t.Fatalf("len=%d total=%d dropped=%d", tr.Len(), tr.Total(), tr.Dropped())
	}
	evs := tr.Events()
	if evs[0].At != 2 || evs[3].At != 5 {
		t.Fatalf("ring order: %+v", evs)
	}
	j := tr.Journey(1)
	if len(j) != 2 || j[0].At != 3 || j[1].At != 5 {
		t.Fatalf("journey: %+v", j)
	}
}

func TestTracerRecordNoAlloc(t *testing.T) {
	tr := NewTracer(64)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Record(SpanEvent{At: 1, UID: 2, Node: 3, Stage: StageEnqueue, A: 4, B: 5})
	})
	if allocs != 0 {
		t.Fatalf("enabled tracer allocates: %v allocs/op", allocs)
	}
}

func TestTracerExport(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(SpanEvent{At: 10, UID: 1, Node: 2, Stage: StageEnqueue, A: 0, B: 1500})
	var jb strings.Builder
	if err := tr.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jb.String(), `"stage":"enqueue"`) {
		t.Fatalf("jsonl: %s", jb.String())
	}
}

func TestStageNames(t *testing.T) {
	if StageParser.String() != "parser" || StageLinkRx.String() != "link-rx" {
		t.Fatal("stage names wrong")
	}
	if Stage(200).String() != "unknown" {
		t.Fatal("out-of-range stage must name unknown")
	}
}
