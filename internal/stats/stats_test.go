package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	cases := map[float64]float64{0: 1, 0.5: 50.5, 1: 100}
	for q, want := range cases {
		if got := h.Quantile(q); math.Abs(got-want) > 0.01 {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Mean = %v", got)
	}
}

func TestHistogramInterleavedAddQuery(t *testing.T) {
	var h Histogram
	h.Add(10)
	_ = h.Quantile(0.5)
	h.Add(0) // must re-sort after a post-query Add
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("Quantile(0) = %v after interleaved add", got)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range quantile did not panic")
		}
	}()
	h.Add(1)
	h.Quantile(1.5)
}

// Property: quantiles are monotone in q.
func TestQuantileMonotone(t *testing.T) {
	f := func(seed int64, qa, qb float64) bool {
		qa = math.Abs(qa)
		qb = math.Abs(qb)
		qa -= math.Floor(qa)
		qb -= math.Floor(qb)
		if qa > qb {
			qa, qb = qb, qa
		}
		r := rand.New(rand.NewSource(seed))
		var h Histogram
		for i := 0; i < 50; i++ {
			h.Add(r.Float64() * 100)
		}
		return h.Quantile(qa) <= h.Quantile(qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
