package l2

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// mapModel is the table as it was keyed before the uint64 key: the
// MAC array itself.  It is the differential oracle for Table.
type mapModel struct {
	age     int64
	entries map[core.MAC]entry
}

func newMapModel(age int64) *mapModel {
	if age <= 0 {
		age = DefaultAge
	}
	return &mapModel{age: age, entries: make(map[core.MAC]entry)}
}

func (t *mapModel) Learn(mac core.MAC, port int, now int64) {
	if mac.IsBroadcast() {
		return
	}
	t.entries[mac] = entry{port: port, learnedAt: now}
}

func (t *mapModel) Lookup(mac core.MAC, now int64) (port int, ok bool) {
	e, ok := t.entries[mac]
	if !ok {
		return 0, false
	}
	if now-e.learnedAt > t.age {
		delete(t.entries, mac)
		return 0, false
	}
	return e.port, true
}

func (t *mapModel) Size() int { return len(t.entries) }

func (t *mapModel) Flush() { clear(t.entries) }

func (t *mapModel) Expire(now int64) {
	for mac, e := range t.entries {
		if now-e.learnedAt > t.age {
			delete(t.entries, mac)
		}
	}
}

// TestTableMatchesMapModel drives Table and the MAC-keyed model with
// the same seeded operation sequence — learns (broadcast sources and
// station moves included), lookups exactly at and one past the age
// boundary, expiries and flushes — and requires the same port, ok and
// Size after every step.  Part of the mix aims at the memo of the last
// source learned: back-to-back relearns of that source, some moving
// it to another port; lookups of it at and one past the age boundary
// of its newest, memo-only refresh; and expiries and flushes right
// after such a refresh, while the map's copy is out of date.
func TestTableMatchesMapModel(t *testing.T) {
	const age = 1000
	// Stations: small addresses, addresses that differ only in the
	// high bytes, the zero address and the broadcast address.
	stations := []core.MAC{
		mac(1), mac(2), mac(3), mac(0x0100_0000_0001),
		mac(0xfeff_ffff_ffff), mac(0x8000_0000_0000), {}, core.BroadcastMAC,
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := New(age), newMapModel(age)
		now := int64(0)
		last := stations[0] // the last source learned
		// boundary is now, the last fresh instant of m's entry or its
		// first stale one, a third of the time each.
		boundary := func(m core.MAC) int64 {
			if e, ok := want.entries[m]; ok {
				switch rng.Intn(3) {
				case 0:
					return e.learnedAt + age
				case 1:
					return e.learnedAt + age + 1
				}
			}
			return now
		}
		learn := func(m core.MAC, port int) {
			got.Learn(m, port, now)
			want.Learn(m, port, now)
			if !m.IsBroadcast() {
				last = m
			}
		}
		// relearn refreshes the last source one to three times, a step
		// apart; a quarter of the refreshes move it to another port.
		relearn := func() {
			port := 0
			if e, ok := want.entries[last]; ok {
				port = e.port
			}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				now += 1 + rng.Int63n(age/4)
				if rng.Intn(4) == 0 {
					port = (port + 1 + rng.Intn(3)) % 4 // a station move
				}
				learn(last, port)
			}
		}
		for step := 0; step < 5000; step++ {
			now += rng.Int63n(age / 4)
			m := stations[rng.Intn(len(stations))]
			var op string
			var gotPort, wantPort int
			var gotOK, wantOK bool
			switch r := rng.Intn(100); {
			case r < 35:
				op = "learn"
				learn(m, rng.Intn(4)) // relearning on another port is a station move
			case r < 45:
				op, m = "relearn", last
				relearn()
			case r < 75:
				op = "lookup"
				at := boundary(m)
				gotPort, gotOK = got.Lookup(m, at)
				wantPort, wantOK = want.Lookup(m, at)
			case r < 85:
				op, m = "relearn+lookup", last
				relearn()
				at := boundary(m)
				gotPort, gotOK = got.Lookup(m, at)
				wantPort, wantOK = want.Lookup(m, at)
			case r < 95:
				op = "expire"
				if rng.Intn(2) == 0 {
					op, m = "relearn+expire", last
					relearn()
				}
				at := now
				if e, ok := want.entries[m]; ok {
					at = e.learnedAt + age + rng.Int63n(2) // m at or one past its boundary
				}
				got.Expire(at)
				want.Expire(at)
			default:
				op = "flush"
				if rng.Intn(2) == 0 {
					op, m = "relearn+flush", last
					relearn()
				}
				got.Flush()
				want.Flush()
			}
			if gotPort != wantPort || gotOK != wantOK || got.Size() != want.Size() {
				t.Fatalf("seed %d step %d: %s %v: table (port %d, ok %v, size %d), model (port %d, ok %v, size %d)",
					seed, step, op, m, gotPort, gotOK, got.Size(), wantPort, wantOK, want.Size())
			}
			// Every entry the model holds answers the same at now,
			// before the next step moves the clock.
			for _, st := range stations {
				e, held := want.entries[st]
				if !held || now-e.learnedAt > age {
					continue
				}
				if p, ok := got.Lookup(st, now); !ok || p != e.port {
					t.Fatalf("seed %d step %d: after %s %v: %v answers (port %d, ok %v), model holds port %d",
						seed, step, op, m, st, p, ok, e.port)
				}
			}
		}
	}
}
