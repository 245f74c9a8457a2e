package obs

import (
	"strings"
	"testing"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 20, 21}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
		// The bucket must actually contain the value.
		if b := BucketOf(c.v); c.v < BucketLow(b) || c.v > BucketHigh(b) {
			t.Errorf("%d outside its bucket [%d, %d]", c.v, BucketLow(b), BucketHigh(b))
		}
	}
}

func TestObserveBucket(t *testing.T) {
	h := NewHistogram()
	h.ObserveBucket(3, 5) // five samples in [4, 7]
	h.ObserveBucket(3, 0) // no-op
	h.ObserveBucket(-1, 2)
	h.ObserveBucket(NumBuckets, 2) // out of range: dropped
	if h.Count() != 5 || h.Bucket(3) != 5 {
		t.Fatalf("count %d bucket %d", h.Count(), h.Bucket(3))
	}
	// Sum and max use the bucket's representative low bound.
	if h.Sum() != 5*BucketLow(3) || h.Max() != BucketLow(3) {
		t.Fatalf("sum %d max %d", h.Sum(), h.Max())
	}
	// Folding pre-bucketed counts agrees with observing the bounds.
	h2 := NewHistogram()
	for i := 0; i < 5; i++ {
		h2.Observe(4)
	}
	if h2.Bucket(3) != h.Bucket(3) || h2.Count() != h.Count() {
		t.Fatal("ObserveBucket and Observe(low bound) disagree")
	}
	var nilH *Histogram
	nilH.ObserveBucket(3, 1) // must not panic
}

func TestQuantileExtremes(t *testing.T) {
	// Empty histogram: every quantile is zero.
	h := NewHistogram()
	if h.Quantile(0) != 0 || h.Quantile(0.5) != 0 || h.Quantile(1) != 0 {
		t.Fatal("empty histogram quantile not zero")
	}

	// Single bucket: q=0 and q=1 both land in it, clamped to Max.
	h.Observe(100) // bucket [64, 127]
	if got := h.Quantile(0); got != 100 {
		t.Fatalf("q=0 = %d", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("q=1 = %d", got)
	}
	// Out-of-range q clamps rather than misbehaving.
	if h.Quantile(-3) != h.Quantile(0) || h.Quantile(7) != h.Quantile(1) {
		t.Fatal("out-of-range q not clamped")
	}

	// Two buckets: q=0 resolves to the lowest occupied bucket's bound,
	// q=1 to the overall max.
	h.Observe(5) // bucket [4, 7]
	if got := h.Quantile(0); got != 7 {
		t.Fatalf("two-bucket q=0 = %d", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("two-bucket q=1 = %d", got)
	}
}

// TestSnapshotGolden pins the export byte-for-byte: deterministic,
// name-sorted ordering is part of the format contract (results files
// are committed and diffed), so any reordering or field change must
// show up here.
func TestSnapshotGolden(t *testing.T) {
	reg := NewRegistry()
	// Registered deliberately out of alphabetical order.
	reg.Histogram("rtt").Observe(5)
	reg.Histogram("rtt").Observe(100)
	reg.Counter("pkts").Add(3)
	reg.Gauge("queue").Set(-7)
	snap := reg.Snapshot(42)

	var jsonl strings.Builder
	if err := snap.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	wantJSONL := `{"at_ns":42,"name":"pkts","kind":"counter","value":3}
{"at_ns":42,"name":"queue","kind":"gauge","value":-7}
{"at_ns":42,"name":"rtt","kind":"histogram","count":2,"sum":105,"max":100,"buckets":[{"lo":4,"hi":7,"n":1},{"lo":64,"hi":127,"n":1}]}
`
	if jsonl.String() != wantJSONL {
		t.Errorf("WriteJSONL drifted:\ngot:\n%s\nwant:\n%s", jsonl.String(), wantJSONL)
	}
}

// TestCollectPullsOwnersWords pins the pull edge: a collector's rows
// are read when Snapshot runs (not when Collect registered it), a name
// emitted by two owners and also held as a handle is one summed row,
// pulled rows sort with the pushed ones and are re-read by every
// Snapshot and written by the exporter, and a nil registry takes Collect as a no-op.
func TestCollectPullsOwnersWords(t *testing.T) {
	var nilReg *Registry
	nilReg.Collect(func(func(string, uint64)) { t.Error("collector ran on a nil registry") })
	if s := nilReg.Snapshot(0); len(s.Metrics) != 0 {
		t.Fatalf("nil registry snapshot has %d rows", len(s.Metrics))
	}

	reg := NewRegistry()
	var a, b, solo uint64 // the owners' words
	reg.Collect(func(emit func(string, uint64)) {
		emit("shared", a)
		emit("zz/solo", solo)
	})
	reg.Collect(func(emit func(string, uint64)) { emit("shared", b) })
	reg.Counter("shared").Add(100)
	reg.Gauge("queue").Set(-7)
	reg.Histogram("rtt").Observe(5)

	a, b, solo = 1, 20, 4
	before := reg.Snapshot(1)
	if m, ok := before.Get("shared"); !ok || m.Kind != KindCounter || m.Value != 121 {
		t.Fatalf("shared = %+v (ok=%v), want one counter row of 121", m, ok)
	}
	var names []string
	for _, m := range before.Metrics {
		names = append(names, m.Name)
	}
	if got := strings.Join(names, " "); got != "queue rtt shared zz/solo" {
		t.Fatalf("rows %q: pulled rows must sort with the rest, one row per name", got)
	}

	a, solo = 3, 4
	after := reg.Snapshot(2)
	if m, _ := after.Get("shared"); m.Value != 123 {
		t.Fatalf("shared after = %d, want 123: the words are re-read at each snapshot", m.Value)
	}
	if m, _ := before.Get("shared"); m.Value != 121 {
		t.Fatalf("shared before = %d, want 121: a snapshot is a copy", m.Value)
	}

	var jsonl strings.Builder
	if err := after.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if want := `{"at_ns":2,"name":"shared","kind":"counter","value":123}` + "\n" +
		`{"at_ns":2,"name":"zz/solo","kind":"counter","value":4}` + "\n"; !strings.HasSuffix(jsonl.String(), want) {
		t.Errorf("WriteJSONL:\n%swant suffix:\n%s", jsonl.String(), want)
	}
}
