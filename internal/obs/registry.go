package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// Registry holds the metric namespace.  Names are hierarchical,
// slash-separated paths ("switch/3/port/1/queue_depth_bytes").  It has
// two edges.  Counts are pulled: the owner of a statistic keeps it as a
// plain word and registers a collector (Collect) that names it, and
// Snapshot reads the word — the only copy.  Histograms and gauges are
// pushed: handles are resolved once, at construction time, and updated
// as plain words on the hot path.  A Registry and its handles belong to
// the goroutine that drives the simulation wired to them (DESIGN §6):
// nothing here locks.  All methods are safe on a nil *Registry; lookups
// then return nil handles, whose operations are no-ops — the
// disabled-telemetry fast path.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func(emit func(name string, v uint64))
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Collect registers fn to be run by every Snapshot: fn calls emit once
// per count it owns, and each becomes a row of kind counter.  A name
// emitted by several owners, or also held as a Counter handle, is one
// row carrying the sum.  fn reads its owner's plain words, so Snapshot
// follows the tracer's contract: it is called by the goroutine that runs
// the simulation, while the simulation is quiescent.  fn must not call
// back into the registry.
func (r *Registry) Collect(fn func(emit func(name string, v uint64))) {
	if r == nil {
		return
	}
	r.collectors = append(r.collectors, fn)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Metric kinds in snapshots.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Bucket is one non-empty histogram bucket in a snapshot.
type Bucket struct {
	Low  uint64 `json:"lo"`
	High uint64 `json:"hi"`
	N    uint64 `json:"n"`
}

// Metric is one metric's state in a snapshot.
type Metric struct {
	AtNs int64  `json:"at_ns"`
	Name string `json:"name"`
	Kind string `json:"kind"`

	// Value is the counter count or the gauge value.
	Value int64 `json:"value,omitempty"`

	// Histogram fields.
	Count   uint64   `json:"count,omitempty"`
	Sum     uint64   `json:"sum,omitempty"`
	Max     uint64   `json:"max,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every registered metric, sorted
// by name.
type Snapshot struct {
	AtNs    int64
	Metrics []Metric
}

// Snapshot captures the registry at simulated time atNs.
func (r *Registry) Snapshot(atNs int64) Snapshot {
	s := Snapshot{AtNs: atNs}
	if r == nil {
		return s
	}
	counts := make(map[string]uint64, len(r.counters))
	emit := func(name string, v uint64) { counts[name] += v }
	for name, c := range r.counters { //lint:allow maporder (summed into a map)
		emit(name, c.Value())
	}
	for _, fn := range r.collectors {
		fn(emit)
	}
	for name, v := range counts { //lint:allow maporder (sorted before return)
		s.Metrics = append(s.Metrics, Metric{
			AtNs: atNs, Name: name, Kind: KindCounter, Value: int64(v),
		})
	}
	for name, g := range r.gauges { //lint:allow maporder (sorted before return)
		s.Metrics = append(s.Metrics, Metric{
			AtNs: atNs, Name: name, Kind: KindGauge, Value: g.Value(),
		})
	}
	for name, h := range r.hists { //lint:allow maporder (sorted before return)
		m := Metric{
			AtNs: atNs, Name: name, Kind: KindHistogram,
			Sum: h.Sum(), Max: h.Max(),
		}
		for i := 0; i < NumBuckets; i++ {
			if n := h.Bucket(i); n > 0 {
				m.Count += n
				m.Buckets = append(m.Buckets, Bucket{Low: BucketLow(i), High: BucketHigh(i), N: n})
			}
		}
		s.Metrics = append(s.Metrics, m)
	}
	sort.Slice(s.Metrics, func(i, j int) bool { return s.Metrics[i].Name < s.Metrics[j].Name })
	return s
}

// Get returns the named metric from the snapshot.
func (s Snapshot) Get(name string) (Metric, bool) {
	i := sort.Search(len(s.Metrics), func(i int) bool { return s.Metrics[i].Name >= name })
	if i < len(s.Metrics) && s.Metrics[i].Name == name {
		return s.Metrics[i], true
	}
	return Metric{}, false
}

// WriteJSONL emits one JSON object per metric, one per line.
func (s Snapshot) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, m := range s.Metrics {
		if err := enc.Encode(m); err != nil {
			return err
		}
	}
	return nil
}
