package microburst

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramQuantiles(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	cases := map[float64]float64{0: 1, 0.5: 50.5, 1: 100}
	for q, want := range cases {
		if got := quantile(xs, q); math.Abs(got-want) > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := mean(xs); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	if quantile(nil, 0.5) != 0 || mean(nil) != 0 {
		t.Fatal("no samples: quantile or mean not zero")
	}
	one := []float64{7}
	if quantile(one, 0) != 7 || quantile(one, 0.99) != 7 || quantile(one, 1) != 7 || mean(one) != 7 {
		t.Fatal("one sample: quantiles or mean not that sample")
	}
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
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		sort.Float64s(xs)
		return quantile(xs, qa) <= quantile(xs, qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
