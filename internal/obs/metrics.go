package obs

import (
	"fmt"
	"math/bits"
)

// Counter is a monotonically increasing metric.  All methods are no-ops
// on a nil receiver, so disabled telemetry costs one predictable branch.
// Like every metric here it is a plain word: one goroutine drives the
// simulation that updates it (DESIGN §6).
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// NumBuckets is the histogram bucket count: bucket 0 holds the value 0
// and bucket i (1..64) holds values in [2^(i-1), 2^i).  Fixed log2
// buckets keep Observe allocation-free and O(1) — the shape P4TG uses
// for in-dataplane RTT histograms — at the cost of ~2x value
// resolution, which is plenty for queue depths, latencies and cycle
// counts spanning many decades.
const NumBuckets = 65

// BucketLow returns the smallest value bucket i holds.
func BucketLow(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// BucketHigh returns the largest value bucket i holds.
func BucketHigh(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<i - 1
}

// BucketOf maps a value to its bucket index: bits.Len64 is the log2
// bucketing function (0 -> 0, [2^(i-1), 2^i) -> i).  It is exported so
// dataplane code (the in-band histogram workloads) buckets values with
// exactly the same function the host-side histograms use, making the
// two directly comparable bucket-for-bucket.
func BucketOf(v uint64) int { return bits.Len64(v) }

func bucketOf(v uint64) int { return BucketOf(v) }

// Histogram accumulates a distribution in fixed log2 buckets.  The
// observation count is not stored: it is the sum of the buckets, so a
// count always agrees with the buckets it is read beside.
type Histogram struct {
	sum     uint64
	max     uint64
	buckets [NumBuckets]uint64
}

// NewHistogram builds a standalone histogram (outside any registry);
// experiment code uses this when it wants the distribution shape
// without a full telemetry setup.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe folds one value in.  No-op on a nil receiver; it is inlined,
// so a disabled histogram costs its caller one branch.
//
//alloc:inline
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)]++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// ObserveBucket folds n pre-bucketed observations directly into bucket
// i — the aggregation path for dataplane-computed histograms, whose
// sweeps deliver per-bucket counts rather than raw values.  Sum and Max
// are maintained with the bucket's lower edge as the representative
// value (the true values were quantized away in the dataplane), so Mean
// and Quantile stay conservative underestimates.  No-op on a nil
// receiver or an out-of-range bucket.
func (h *Histogram) ObserveBucket(i int, n uint64) {
	if h == nil || n == 0 || i < 0 || i >= NumBuckets {
		return
	}
	h.buckets[i] += n
	rep := BucketLow(i)
	h.sum += rep * n
	if rep > h.max {
		h.max = rep
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i]
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Max returns the largest observed value.
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Bucket returns the observation count of bucket i.
func (h *Histogram) Bucket(i int) uint64 {
	if h == nil || i < 0 || i >= NumBuckets {
		return 0
	}
	return h.buckets[i]
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the buckets,
// reporting the upper edge of the bucket the quantile falls in (clamped
// to the true maximum), so the estimate never understates.
func (h *Histogram) Quantile(q float64) uint64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(n))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += h.buckets[i]
		if cum >= target {
			hi := BucketHigh(i)
			if m := h.Max(); m < hi {
				return m
			}
			return hi
		}
	}
	return h.Max()
}

// String summarizes the distribution on one line.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p50<=%d p99<=%d max=%d",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}
