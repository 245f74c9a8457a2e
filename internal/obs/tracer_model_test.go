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
							Stage: Stage(rng.Intn(len(stageNames))), A: rng.Uint64(), B: uint64(i)}
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

// TestSpanRecordRoundTrip records the values the 32-byte record packs
// at its edges — every stage, At at zero, at the top of its 56 bits and
// past them, A and Node at their maxima, and B as a negative port cast
// to uint64, a 5 s delay in ns, 2^32 and MaxUint64 — across a chunk
// boundary and on past wrap-around, and holds every reader to the plain
// SpanEvent reference: Each, Events, Journey, WriteJSONL, Len, Total
// and Dropped.  The values that fit no slot take the spill list, so the
// overwrites that pop it are checked too.
func TestSpanRecordRoundTrip(t *testing.T) {
	ats := []int64{0, 1, 1<<56 - 1, 1 << 56, -1, math.MaxInt64}
	as := []uint64{0, 7, math.MaxUint64}
	nodes := []uint32{0, 3, math.MaxUint32}
	bs := []uint64{0, 1500, math.MaxUint64 - 2, 5_000_000_000, 1 << 32, math.MaxUint64,
		1<<32 - 1, 0xffffffff_00000000}
	stages := []Stage{64, 255}
	for s := range stageNames {
		stages = append(stages, Stage(s))
	}
	event := func(i int) SpanEvent {
		return SpanEvent{At: ats[i%len(ats)], UID: uint64(i % 3), Node: nodes[i/2%len(nodes)],
			Stage: stages[i%len(stages)], A: as[i/3%len(as)], B: bs[i/5%len(bs)]}
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

	limit := chunkEvents + 7
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
	spilled := 0
	for _, ev := range m.retained() {
		if uint64(ev.At) > recAtMask || ev.Stage >= 64 || (ev.B>>32 != 0 && ev.B>>32 != 0xffffffff) {
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
	if len(tr.chunks) != 1 || len(tr.chunks[0]) != chunkEvents {
		t.Fatalf("100 events hold %d chunks, want one of %d events", len(tr.chunks), chunkEvents)
	}
	if limit := int64(2 * chunkEvents * 32); held > limit {
		t.Fatalf("tracer with 100 events holds %d bytes of heap, want <= %d", held, limit)
	}
	if tr.Len() != 100 || tr.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	runtime.KeepAlive(tr)
}
