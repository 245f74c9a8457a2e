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
// Size after every step.
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
		for step := 0; step < 5000; step++ {
			now += rng.Int63n(age / 4)
			m := stations[rng.Intn(len(stations))]
			var op string
			var gotPort, wantPort int
			var gotOK, wantOK bool
			switch r := rng.Intn(100); {
			case r < 45:
				op = "learn"
				port := rng.Intn(4) // relearning on another port is a station move
				got.Learn(m, port, now)
				want.Learn(m, port, now)
			case r < 90:
				op = "lookup"
				at := now
				if e, ok := want.entries[m]; ok {
					switch rng.Intn(3) {
					case 0:
						at = e.learnedAt + age // last fresh instant
					case 1:
						at = e.learnedAt + age + 1 // first stale instant
					}
				}
				gotPort, gotOK = got.Lookup(m, at)
				wantPort, wantOK = want.Lookup(m, at)
			case r < 98:
				op = "expire"
				at := now
				if e, ok := want.entries[m]; ok {
					at = e.learnedAt + age + rng.Int63n(2) // m at or one past its boundary
				}
				got.Expire(at)
				want.Expire(at)
			default:
				op = "flush"
				got.Flush()
				want.Flush()
			}
			if gotPort != wantPort || gotOK != wantOK || got.Size() != want.Size() {
				t.Fatalf("seed %d step %d: %s %v: table (port %d, ok %v, size %d), model (port %d, ok %v, size %d)",
					seed, step, op, m, gotPort, gotOK, got.Size(), wantPort, wantOK, want.Size())
			}
		}
	}
}
