package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// modelTracer is the naive reference the chunked log is compared with:
// every event ever recorded into the log, in one slice, the
// retained ones being the last limit of them.
type modelTracer struct {
	limit int
	all   []SpanEvent
}

func (m *modelTracer) retained() []SpanEvent {
	if len(m.all) > m.limit {
		return m.all[len(m.all)-m.limit:]
	}
	return m.all
}

func (m *modelTracer) journey(uid uint64) []SpanEvent {
	var out []SpanEvent
	for _, ev := range m.retained() {
		if ev.UID == uid {
			out = append(out, ev)
		}
	}
	return out
}

// checkAgainst compares every read method of tr with the model.
func checkAgainst(t *testing.T, tr *Tracer, m *modelTracer, where string) {
	t.Helper()
	want := m.retained()
	if tr.Len() != len(want) || tr.Total() != uint64(len(m.all)) ||
		tr.Dropped() != uint64(len(m.all)-len(want)) {
		t.Fatalf("%s: len=%d total=%d dropped=%d, model len=%d total=%d dropped=%d", where,
			tr.Len(), tr.Total(), tr.Dropped(), len(want), len(m.all), len(m.all)-len(want))
	}
	if got := tr.Events(); !slices.Equal(got, want) {
		t.Fatalf("%s: Events differ from model (got %d events, want %d)", where, len(got), len(want))
	}
	i := 0
	tr.Each(func(ev *SpanEvent) {
		if i >= len(want) || *ev != want[i] {
			t.Fatalf("%s: Each visit %d = %+v, model disagrees", where, i, *ev)
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("%s: Each visited %d events, want %d", where, i, len(want))
	}
	for uid := uint64(0); uid < 3; uid++ {
		if j, w := tr.Journey(uid), m.journey(uid); !slices.Equal(j, w) {
			t.Fatalf("%s: Journey(%d) has %d events, model %d", where, uid, len(j), len(w))
		}
	}
}

// TestTracerMatchesModel drives seeded Record/read sequences
// through the chunked log and the slice reference, at capacities on
// both sides of every chunk boundary and totals below, at and far
// beyond capacity.
func TestTracerMatchesModel(t *testing.T) {
	caps := []int{1, chunkEvents - 1, chunkEvents, chunkEvents + 1, 3*chunkEvents + 7}
	for _, limit := range caps {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cap%d/seed%d", limit, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				tr, m := NewTracer(limit), &modelTracer{limit: limit}
				var at int64
				record := func(n int) {
					for i := 0; i < n; i++ {
						at++
						ev := SpanEvent{At: at, UID: uint64(rng.Intn(3)), Node: uint32(rng.Intn(5)),
							Stage: Stage(rng.Intn(len(stageNames))), A: rng.Uint64() >> rng.Intn(64), B: uint64(i)}
						tr.Record(ev)
						m.all = append(m.all, ev)
					}
				}
				checkAgainst(t, tr, m, "empty")
				// Totals below, just under, at, just over and far beyond
				// capacity, each reached in one burst into a fresh log, then
				// random bursts with occasional fresh logs.
				for _, n := range []int{limit / 2, limit - 1, limit, limit + 1, 2*limit + 1, 5*limit + 3} {
					tr = NewTracer(limit)
					m.all = m.all[:0]
					checkAgainst(t, tr, m, "fresh log")
					record(n)
					checkAgainst(t, tr, m, fmt.Sprintf("burst of %d", n))
				}
				for step := 0; step < 40; step++ {
					if rng.Intn(8) == 0 {
						tr = NewTracer(limit)
						m.all = m.all[:0]
					}
					record(rng.Intn(limit + chunkEvents/2))
					checkAgainst(t, tr, m, fmt.Sprintf("step %d", step))
				}
			})
		}
	}
}

// TestSpanRecordRoundTrip records, across chunk boundaries and on past
// wrap-around, events that carry each field of the 24-byte record at its
// edge — the largest value that fits and the one past it, which spills —
// and holds every reader to the plain SpanEvent reference: Each, Events,
// Journey, WriteJSONL, Len, Total and Dropped.  The run's clock passes
// 2^48 ns; some events are earlier than their chunk's base, and the
// checks after a wrap read a chunk that holds two laps.  Whether an event
// spills is the code's own predicate, recFits, and each edge's expected
// verdict is checked against it.
func TestSpanRecordRoundTrip(t *testing.T) {
	const step = 3 << 33 // a chunk spans < 2^47 ns; the run passes 2^48
	type edge struct {
		name string
		set  func(ev *SpanEvent, base int64)
		fits bool
	}
	edges := []edge{
		{"at=base", func(ev *SpanEvent, b int64) { ev.At = b }, true},
		{"at=base-1", func(ev *SpanEvent, b int64) { ev.At = b - 1 }, true},
		{"at=base+2^47-1", func(ev *SpanEvent, b int64) { ev.At = b + 1<<47 - 1 }, true},
		{"at=base+2^47", func(ev *SpanEvent, b int64) { ev.At = b + 1<<47 }, false},
		{"at=base-2^47", func(ev *SpanEvent, b int64) { ev.At = b - 1<<47 }, true},
		{"at=base-2^47-1", func(ev *SpanEvent, b int64) { ev.At = b - 1<<47 - 1 }, false},
		{"at=MaxInt64", func(ev *SpanEvent, _ int64) { ev.At = math.MaxInt64 }, false},
		{"at=MinInt64", func(ev *SpanEvent, _ int64) { ev.At = math.MinInt64 }, false},
		{"node=2^16-1", func(ev *SpanEvent, _ int64) { ev.Node = 1<<16 - 1 }, true},
		{"node=2^16", func(ev *SpanEvent, _ int64) { ev.Node = 1 << 16 }, false},
		{"node=MaxUint32", func(ev *SpanEvent, _ int64) { ev.Node = math.MaxUint32 }, false},
		{"a=2^24-1", func(ev *SpanEvent, _ int64) { ev.A = 1<<24 - 1 }, true},
		{"a=2^24", func(ev *SpanEvent, _ int64) { ev.A = 1 << 24 }, false},
		{"a=MaxUint64", func(ev *SpanEvent, _ int64) { ev.A = math.MaxUint64 }, false},
		{"stage=63", func(ev *SpanEvent, _ int64) { ev.Stage = 63 }, true},
		{"stage=64", func(ev *SpanEvent, _ int64) { ev.Stage = 64 }, false},
		{"stage=255", func(ev *SpanEvent, _ int64) { ev.Stage = 255 }, false},
		{"b=2^32-1", func(ev *SpanEvent, _ int64) { ev.B = 1<<32 - 1 }, true},
		{"b=2^32", func(ev *SpanEvent, _ int64) { ev.B = 1 << 32 }, false},
		{"b=5e9", func(ev *SpanEvent, _ int64) { ev.B = 5_000_000_000 }, false},
		{"b=-1", func(ev *SpanEvent, _ int64) { ev.B = math.MaxUint64 }, true},
		{"b=-2^32", func(ev *SpanEvent, _ int64) { ev.B = 0xffffffff_00000000 }, true},
		{"b=-2^32-1", func(ev *SpanEvent, _ int64) { ev.B = 0xfffffffe_ffffffff }, false},
		{"b=MaxInt64", func(ev *SpanEvent, _ int64) { ev.B = math.MaxInt64 }, false},
		{"uid=MaxUint64", func(ev *SpanEvent, _ int64) { ev.UID = math.MaxUint64 }, true},
		{"uid=heartbeat", func(ev *SpanEvent, _ int64) { ev.UID = 0xA5<<40 | 7 }, true},
	}
	for s := range stageNames {
		s := Stage(s)
		edges = append(edges, edge{"stage=" + s.String(), func(ev *SpanEvent, _ int64) { ev.Stage = s }, true})
	}

	limit := chunkEvents + 7
	// base is the At of the first event recorded into the chunk event n
	// lands in, on n's lap: the clock at that slot.
	base := func(n int) int64 { return int64(n-n%limit%chunkEvents) * step }
	event := func(n int) SpanEvent {
		ev := SpanEvent{At: int64(n) * step, UID: uint64(n % 3), Node: uint32(n % 5),
			Stage: Stage(n % len(stageNames)), A: uint64(n), B: uint64(n)}
		if n%limit%chunkEvents == 0 {
			return ev // a chunk's first event sets its base
		}
		e := edges[n%len(edges)]
		e.set(&ev, base(n))
		if got := recFits(&ev, base(n)); got != e.fits {
			t.Fatalf("event %d (%s): recFits = %v, want %v", n, e.name, got, e.fits)
		}
		return ev
	}
	jsonl := func(evs []SpanEvent) string {
		var b strings.Builder
		enc := json.NewEncoder(&b)
		for _, ev := range evs {
			if err := enc.Encode(spanJSON{At: ev.At, UID: ev.UID, Node: ev.Node,
				Stage: ev.Stage.String(), A: ev.A, B: ev.B}); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}

	tr, m := NewTracer(limit), &modelTracer{limit: limit}
	for i, stop := range []int{5, chunkEvents + 3, limit, limit + 1, 2*limit + chunkEvents/2, 4*limit + 11} {
		for n := len(m.all); n < stop; n++ {
			ev := event(n)
			tr.Record(ev)
			m.all = append(m.all, ev)
		}
		where := fmt.Sprintf("after %d events", stop)
		checkAgainst(t, tr, m, where)
		var got strings.Builder
		if err := tr.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		if want := jsonl(m.retained()); got.String() != want {
			t.Fatalf("%s: WriteJSONL differs from the reference", where)
		}
		if i == 0 && len(tr.spill) == 0 {
			t.Fatal("no event took the spill list")
		}
	}
	if last := m.all[len(m.all)-1].At; last < 1<<48 || !recFits(&m.all[len(m.all)-1], base(len(m.all)-1)) {
		t.Fatalf("the run ends at %d ns, want past 2^48 and unspilled", last)
	}
	spilled := 0
	for j, ev := range m.retained() {
		if !recFits(&ev, base(len(m.all)-len(m.retained())+j)) {
			spilled++
		}
	}
	if len(tr.spill) != spilled {
		t.Fatalf("spill list holds %d events, %d retained events spilled", len(tr.spill), spilled)
	}
	if allocs := testing.AllocsPerRun(10, func() { tr.Each(func(*SpanEvent) {}) }); allocs != 0 {
		t.Fatalf("Each allocates %.1f times per call", allocs)
	}
}

// TestTracerHoldsMemoryForEventsRecorded bounds what a large, nearly
// empty tracer retains: one chunk, not the 33 MB its capacity names.
func TestTracerHoldsMemoryForEventsRecorded(t *testing.T) {
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	tr := NewTracer(1 << 20)
	for i := 0; i < 100; i++ {
		tr.Record(SpanEvent{At: int64(i), UID: 1})
	}
	held := int64(live()) - int64(before)
	if len(tr.chunks) != 1 || len(tr.chunks[0].recs) != chunkEvents {
		t.Fatalf("100 events hold %d chunks, want one of %d events", len(tr.chunks), chunkEvents)
	}
	if limit := int64(2 * chunkEvents * 24); held > limit {
		t.Fatalf("tracer with 100 events holds %d bytes of heap, want <= %d", held, limit)
	}
	if tr.Len() != 100 || tr.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	runtime.KeepAlive(tr)
}
