// Package stats provides the exact-quantile sample histogram behind the
// per-hop queueing-latency breakdowns of §2.1 ("a detailed breakdown of
// queueing latencies on all network hops").
package stats

import (
	"fmt"
	"sort"
)

// Histogram collects samples for quantile queries.  It keeps the raw
// samples (experiments are bounded), sorting lazily.
type Histogram struct {
	samples []float64
	sorted  bool
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.samples = append(h.samples, x)
	h.sorted = false
}

// N returns the sample count.
func (h *Histogram) N() int { return len(h.samples) }

// Quantile returns the q-quantile (0 <= q <= 1) by linear
// interpolation; it panics on an out-of-range q and returns 0 when
// empty.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	pos := q * float64(len(h.samples)-1)
	lo := int(pos)
	if lo == len(h.samples)-1 {
		return h.samples[lo]
	}
	frac := pos - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[lo+1]*frac
}

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range h.samples {
		sum += x
	}
	return sum / float64(len(h.samples))
}
