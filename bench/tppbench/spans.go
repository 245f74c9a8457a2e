package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// maxSpans bounds the in-memory span buffer (a 10 s run of 64-packet
// batches would otherwise record ~300k spans); later spans are counted
// in Dropped.  The per-phase totals the layer metrics come from are
// accumulated separately and never dropped.
const maxSpans = 1 << 16

// span is one driver-side interval around calls into a layer: name,
// start, end, and the span that caused it.  Times are nanoseconds since
// the recorder was created.
type span struct {
	Name   string `json:"name"`
	Index  int    `json:"index,omitempty"` // batch or run number
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRec keeps the traced run's spans in memory until the run ends.
type spanRec struct {
	t0      time.Time
	spans   []span
	dropped int
}

func newSpanRec() *spanRec {
	return &spanRec{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

// add records a finished interval and returns its id (-1 when the
// buffer is full, which children then carry as their parent).
func (r *spanRec) add(name string, index int, parent int32, start, end time.Time) int32 {
	if len(r.spans) == maxSpans {
		r.dropped++
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{
		Name: name, Index: index, ID: id, Parent: parent,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

// reserve records a span whose end is not known yet, so children can
// name it as their parent; finish closes it.
func (r *spanRec) reserve(name string, index int, parent int32, start time.Time) int32 {
	return r.add(name, index, parent, start, start)
}

func (r *spanRec) finish(id int32, end time.Time) {
	if id >= 0 {
		r.spans[id].End = end.Sub(r.t0).Nanoseconds()
	}
}

// selfTimes returns, per span name, total duration minus the part child
// spans cover.
func (r *spanRec) selfTimes() map[string]int64 {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]int64)
	for i, s := range r.spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// write emits the spans as one JSON document under dir.
func (r *spanRec) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	doc := struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		Dropped  int              `json:"dropped"`
		SelfNs   map[string]int64 `json:"self_ns"`
		Spans    []span           `json:"spans"`
	}{workload, seed, r.dropped, r.selfTimes(), r.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// Batch phases, in order: the spans a traced packet batch is split into.
const (
	phBuild = iota
	phSend
	phRun
	phCollect
	numPhases
)

var phaseNames = [numPhases]string{"endhost.build", "endhost.send", "netsim.run", "collect"}

// tracer is the driver's tracing state for a traced run.  Every method
// is a no-op on a nil receiver, which is how untraced runs (and the
// untraced stretches of a traced run) pay nothing for it.
type tracer struct {
	rec    *spanRec
	parent int32            // span new spans hang under
	outer  int32            // parent to restore when the open step closes
	phase  [numPhases]int64 // ns per phase, summed over traced batches
}

func newTracer() *tracer { return &tracer{rec: newSpanRec(), parent: -1} }

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.rec.reserve(name, 0, t.parent, time.Now())
	saved := t.parent
	t.parent = id
	fn()
	t.parent = saved
	t.rec.finish(id, time.Now())
}

// openStep and closeStep bracket one timed step; batchPhases adds its
// children in between.
func (t *tracer) openStep(i int, start time.Time) {
	if t == nil {
		return
	}
	t.outer = t.parent
	t.parent = t.rec.reserve("step", i, t.parent, start)
}

func (t *tracer) closeStep(end time.Time) {
	if t == nil {
		return
	}
	t.rec.finish(t.parent, end)
	t.parent = t.outer
}

// batchPhases records a packet batch's four phases from their five
// boundary times.
func (t *tracer) batchPhases(ts [numPhases + 1]time.Time) {
	for ph := 0; ph < numPhases; ph++ {
		t.phase[ph] += ts[ph+1].Sub(ts[ph]).Nanoseconds()
		t.rec.add(phaseNames[ph], 0, t.parent, ts[ph], ts[ph+1])
	}
}
