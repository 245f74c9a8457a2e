package tcam

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
)

func TestInsertMatch(t *testing.T) {
	tbl := New()
	v, m := DstIPRule(core.IPv4Addr(10, 0, 0, 2))
	id := tbl.Insert(10, v, m, Action{OutPort: 3})

	var key Key
	key[KeyDstIP] = core.IPv4Addr(10, 0, 0, 2)
	e, ok := tbl.Match(key)
	if !ok || e.ID != id || e.Action.OutPort != 3 {
		t.Fatalf("Match = %+v, %v", e, ok)
	}
	key[KeyDstIP]++
	if _, ok := tbl.Match(key); ok {
		t.Fatal("exact rule overmatched")
	}
}

func TestPriorityOrdering(t *testing.T) {
	tbl := New()
	var any Key
	lo := tbl.Insert(1, any, any, Action{OutPort: 1}) // wildcard, low prio
	v, m := DstIPRule(core.IPv4Addr(10, 0, 0, 2))
	hi := tbl.Insert(10, v, m, Action{OutPort: 2})

	var key Key
	key[KeyDstIP] = core.IPv4Addr(10, 0, 0, 2)
	if e, _ := tbl.Match(key); e.ID != hi {
		t.Fatalf("high-priority rule lost: matched %d", e.ID)
	}
	key[KeyDstIP] = core.IPv4Addr(99, 0, 0, 1)
	if e, _ := tbl.Match(key); e.ID != lo {
		t.Fatalf("wildcard fallback broken: matched %d", e.ID)
	}
}

func TestTieBreakByID(t *testing.T) {
	tbl := New()
	var any Key
	first := tbl.Insert(5, any, any, Action{OutPort: 1})
	tbl.Insert(5, any, any, Action{OutPort: 2})
	if e, _ := tbl.Match(Key{}); e.ID != first {
		t.Fatalf("tie must break toward lower id, matched %d", e.ID)
	}
}

func TestVersioning(t *testing.T) {
	tbl := New()
	if tbl.Version() != 0 {
		t.Fatal("fresh table version not 0")
	}
	var any Key
	id := tbl.Insert(1, any, any, Action{OutPort: 1})
	if tbl.Version() != 1 {
		t.Fatalf("version after insert = %d", tbl.Version())
	}
	e, _ := tbl.Get(id)
	if e.Version != 1 {
		t.Fatalf("entry version = %d", e.Version)
	}
	if err := tbl.Update(id, Action{OutPort: 5}); err != nil {
		t.Fatal(err)
	}
	e, _ = tbl.Get(id)
	if e.Version != 2 || e.Action.OutPort != 5 {
		t.Fatalf("after update: %+v", e)
	}
	if tbl.Version() != 2 {
		t.Fatalf("table version after update = %d", tbl.Version())
	}
	if err := tbl.Remove(id); err != nil {
		t.Fatal(err)
	}
	if tbl.Version() != 3 || tbl.Size() != 0 {
		t.Fatalf("after remove: v=%d size=%d", tbl.Version(), tbl.Size())
	}
}

func TestUpdateRemoveUnknown(t *testing.T) {
	tbl := New()
	if err := tbl.Update(99, Action{}); err == nil {
		t.Fatal("Update of unknown id succeeded")
	}
	if err := tbl.Remove(99); err == nil {
		t.Fatal("Remove of unknown id succeeded")
	}
	if _, ok := tbl.Get(99); ok {
		t.Fatal("Get of unknown id succeeded")
	}
}

func TestMaskedMatch(t *testing.T) {
	tbl := New()
	// Match any destination in 10.0.0.0/8 arriving on port 2.
	var v, m Key
	v[KeyDstIP] = core.IPv4Addr(10, 0, 0, 0)
	m[KeyDstIP] = 0xFF000000
	v[KeyInPort] = 2
	m[KeyInPort] = ExactMask
	tbl.Insert(1, v, m, Action{OutPort: 7})

	key := Key{KeyDstIP: core.IPv4Addr(10, 200, 3, 4), KeyInPort: 2}
	if _, ok := tbl.Match(key); !ok {
		t.Fatal("masked match missed")
	}
	key[KeyInPort] = 3
	if _, ok := tbl.Match(key); ok {
		t.Fatal("in-port mismatch matched")
	}
}

func TestDropAction(t *testing.T) {
	tbl := New()
	v, m := DstIPRule(core.IPv4Addr(10, 0, 0, 66))
	tbl.Insert(100, v, m, Action{Drop: true})
	e, ok := tbl.Match(Key{KeyDstIP: core.IPv4Addr(10, 0, 0, 66)})
	if !ok || !e.Action.Drop {
		t.Fatal("drop rule not matched")
	}
}

func TestEntriesOrdered(t *testing.T) {
	tbl := New()
	var any Key
	tbl.Insert(1, any, any, Action{})
	tbl.Insert(9, any, any, Action{})
	tbl.Insert(5, any, any, Action{})
	es := tbl.Entries()
	if len(es) != 3 || es[0].Priority != 9 || es[1].Priority != 5 || es[2].Priority != 1 {
		t.Fatalf("Entries order: %+v", es)
	}
}

// covers is the ternary match by definition, word by word from the
// entry's own value and mask: the reference the compiled rules must
// agree with.
func covers(e Entry, key Key) bool {
	for i := 0; i < KeyWords; i++ {
		if key[i]&e.Mask[i] != e.Value[i]&e.Mask[i] {
			return false
		}
	}
	return true
}

// naiveMatch is the reference implementation for the property test.
func naiveMatch(entries []Entry, key Key) (Entry, bool) {
	best := -1
	var out Entry
	for _, e := range entries {
		if !covers(e, key) {
			continue
		}
		if e.Priority > best || (e.Priority == best && e.ID < out.ID) {
			best = e.Priority
			out = e
		}
	}
	return out, best >= 0
}

// Property: Match agrees with the naive full-scan reference across
// random rule sets, including after updates and removals.
func TestMatchAgainstNaiveReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		tbl := New()
		for i := 0; i < 60; i++ {
			var v, m Key
			for w := 0; w < KeyWords; w++ {
				// Small value domain so rules overlap often.
				v[w] = uint32(r.Intn(4))
				m[w] = [3]uint32{0, 0x3, ExactMask}[r.Intn(3)]
			}
			tbl.Insert(r.Intn(8), v, m, Action{OutPort: r.Intn(16)})
		}
		// Mutate some entries.
		for _, e := range tbl.Entries() {
			switch r.Intn(4) {
			case 0:
				if err := tbl.Remove(e.ID); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := tbl.Update(e.ID, Action{OutPort: r.Intn(16)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		ref := tbl.Entries()
		for i := 0; i < 500; i++ {
			var key Key
			for w := 0; w < KeyWords; w++ {
				key[w] = uint32(r.Intn(4))
			}
			got, gok := tbl.Match(key)
			want, wok := naiveMatch(ref, key)
			if gok != wok || (gok && got.ID != want.ID) {
				t.Fatalf("Match(%v) = %+v,%v; naive %+v,%v", key, got, gok, want, wok)
			}
		}
	}
}

func TestMatchCount(t *testing.T) {
	tbl := New()
	var any Key
	tbl.Insert(1, any, any, Action{OutPort: 1}) // wildcard covers all
	v, m := DstIPRule(core.IPv4Addr(10, 0, 0, 2))
	tbl.Insert(10, v, m, Action{OutPort: 2})

	key := Key{KeyDstIP: core.IPv4Addr(10, 0, 0, 2)}
	if _, got := tbl.Lookup(key); got != 2 {
		t.Fatalf("match count = %d, want 2", got)
	}
	key[KeyDstIP]++
	if _, got := tbl.Lookup(key); got != 1 {
		t.Fatalf("match count = %d, want 1 (wildcard only)", got)
	}
	if e, got := New().Lookup(key); got != 0 || e != nil {
		t.Fatalf("empty table Lookup = %v, %d", e, got)
	}
}

// TestLookupAgainstModel runs a seeded sequence of every mutation
// interleaved with lookups.  After each step the table's Entries must
// equal a map model kept by the test, and Lookup's one pass must return
// the winner and the match count of a naive walk of Entries: the
// highest-priority covering rule (lowest id on a tie) and every covering
// rule counted.  Values carry bits outside their masks, so a compiled
// rule that skipped the pre-mask would miss keys it covers.
func TestLookupAgainstModel(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tbl := New()
	model := map[uint32]Entry{}
	ids := func() []uint32 {
		out := make([]uint32, 0, len(model))
		for id := range model {
			out = append(out, id)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for step := 0; step < 3000; step++ {
		switch op := r.Intn(10); {
		case op < 4 || len(model) == 0:
			var v, m Key
			for w := 0; w < KeyWords; w++ {
				v[w] = uint32(r.Intn(8))
				m[w] = [4]uint32{0, 0x1, 0x3, ExactMask}[r.Intn(4)]
			}
			a := Action{Drop: r.Intn(8) == 0, OutPort: r.Intn(16)}
			prio := r.Intn(6)
			id := tbl.Insert(prio, v, m, a)
			model[id] = Entry{ID: id, Version: 1, Priority: prio, Value: v, Mask: m, Action: a}
		case op < 6:
			all := ids()
			id := all[r.Intn(len(all))]
			a := Action{OutPort: r.Intn(16)}
			if err := tbl.Update(id, a); err != nil {
				t.Fatal(err)
			}
			e := model[id]
			e.Action, e.Version = a, e.Version+1
			model[id] = e
		case op < 8:
			all := ids()
			id := all[r.Intn(len(all))]
			e := model[id]
			expect := e.Version
			if r.Intn(3) == 0 {
				expect-- // a stale writer: refused, nothing changes
			}
			a := Action{OutPort: r.Intn(16)}
			err := tbl.UpdateIfVersion(id, expect, a)
			if expect != e.Version {
				if !errors.Is(err, ErrVersionRaced) {
					t.Fatalf("stale UpdateIfVersion: err = %v", err)
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			e.Action, e.Version = a, e.Version+1
			model[id] = e
		default:
			all := ids()
			id := all[r.Intn(len(all))]
			if err := tbl.Remove(id); err != nil {
				t.Fatal(err)
			}
			delete(model, id)
		}

		ref := tbl.Entries()
		if len(ref) != len(model) {
			t.Fatalf("step %d: Entries has %d rules, model %d", step, len(ref), len(model))
		}
		for _, e := range ref {
			if e != model[e.ID] {
				t.Fatalf("step %d: Entries holds %+v, model %+v", step, e, model[e.ID])
			}
		}
		for i := 0; i < 8; i++ {
			var key Key
			for w := 0; w < KeyWords; w++ {
				key[w] = uint32(r.Intn(8))
			}
			want, wok := naiveMatch(ref, key)
			n := 0
			for j := range ref {
				if covers(ref[j], key) {
					n++
				}
			}
			got, gn := tbl.Lookup(key)
			if gn != n || (got != nil) != wok || (wok && *got != want) {
				t.Fatalf("step %d: Lookup(%v) = %+v, %d; naive %+v, %v, %d", step, key, got, gn, want, wok, n)
			}
		}
	}
}
