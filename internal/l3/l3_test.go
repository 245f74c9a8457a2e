package l3

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

func TestBasicLookup(t *testing.T) {
	tbl := New()
	must(t, tbl.Insert(core.IPv4Addr(10, 0, 0, 0), 8, Route{OutPort: 1}))
	must(t, tbl.Insert(core.IPv4Addr(10, 1, 0, 0), 16, Route{OutPort: 2}))
	must(t, tbl.Insert(core.IPv4Addr(10, 1, 2, 0), 24, Route{OutPort: 3}))

	cases := []struct {
		ip   uint32
		port int
		ok   bool
	}{
		{core.IPv4Addr(10, 9, 9, 9), 1, true},
		{core.IPv4Addr(10, 1, 9, 9), 2, true},
		{core.IPv4Addr(10, 1, 2, 9), 3, true},
		{core.IPv4Addr(11, 0, 0, 1), 0, false},
	}
	for _, c := range cases {
		r, ok := tbl.Lookup(c.ip)
		if ok != c.ok || (ok && r.OutPort != c.port) {
			t.Errorf("Lookup(%#08x) = %+v, %v; want port %d ok=%v",
				c.ip, r, ok, c.port, c.ok)
		}
	}
	if tbl.Size() != 3 {
		t.Fatalf("Size = %d", tbl.Size())
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestDefaultRoute(t *testing.T) {
	tbl := New()
	must(t, tbl.Insert(0, 0, Route{OutPort: 9}))
	r, ok := tbl.Lookup(core.IPv4Addr(1, 2, 3, 4))
	if !ok || r.OutPort != 9 {
		t.Fatalf("default route: %+v %v", r, ok)
	}
}

func TestHostRoute(t *testing.T) {
	tbl := New()
	ip := core.IPv4Addr(10, 0, 0, 7)
	must(t, tbl.Insert(ip, 32, Route{OutPort: 4}))
	if r, ok := tbl.Lookup(ip); !ok || r.OutPort != 4 {
		t.Fatal("host route missed")
	}
	if _, ok := tbl.Lookup(ip + 1); ok {
		t.Fatal("host route overmatched")
	}
}

func TestReplaceRoute(t *testing.T) {
	tbl := New()
	must(t, tbl.Insert(core.IPv4Addr(10, 0, 0, 0), 8, Route{OutPort: 1}))
	must(t, tbl.Insert(core.IPv4Addr(10, 0, 0, 0), 8, Route{OutPort: 2}))
	if tbl.Size() != 1 {
		t.Fatalf("replace grew table to %d", tbl.Size())
	}
	if r, _ := tbl.Lookup(core.IPv4Addr(10, 1, 1, 1)); r.OutPort != 2 {
		t.Fatal("replacement not visible")
	}
}

func TestRemove(t *testing.T) {
	tbl := New()
	must(t, tbl.Insert(core.IPv4Addr(10, 0, 0, 0), 8, Route{OutPort: 1}))
	must(t, tbl.Insert(core.IPv4Addr(10, 1, 0, 0), 16, Route{OutPort: 2}))
	if !tbl.Remove(core.IPv4Addr(10, 1, 0, 0), 16) {
		t.Fatal("Remove failed")
	}
	if tbl.Remove(core.IPv4Addr(10, 1, 0, 0), 16) {
		t.Fatal("double Remove succeeded")
	}
	if r, _ := tbl.Lookup(core.IPv4Addr(10, 1, 1, 1)); r.OutPort != 1 {
		t.Fatal("fallback to shorter prefix broken")
	}
	if tbl.Size() != 1 {
		t.Fatalf("Size = %d", tbl.Size())
	}
	if tbl.Remove(0, 40) {
		t.Fatal("bad plen Remove succeeded")
	}
}

func TestInsertBadPrefixLen(t *testing.T) {
	tbl := New()
	if err := tbl.Insert(0, 33, Route{}); err == nil {
		t.Fatal("plen 33 accepted")
	}
	if err := tbl.Insert(0, -1, Route{}); err == nil {
		t.Fatal("plen -1 accepted")
	}
}

// naive is the reference LPM implementation for the property test.
type naiveEntry struct {
	prefix uint32
	plen   int
	route  Route
}

func naiveLookup(entries []naiveEntry, ip uint32) (Route, bool) {
	best := -1
	var r Route
	for _, e := range entries {
		var mask uint32
		if e.plen > 0 {
			mask = ^uint32(0) << (32 - e.plen)
		}
		if ip&mask == e.prefix&mask && e.plen > best {
			best = e.plen
			r = e.route
		}
	}
	return r, best >= 0
}

// Property: the trie agrees with the naive reference on random route
// sets and random lookups, including after removals.
func TestTrieMatchesNaiveReference(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		tbl := New()
		var entries []naiveEntry
		seen := map[uint64]int{} // prefix/plen -> entries index
		for i := 0; i < 100; i++ {
			plen := r.Intn(33)
			var mask uint32
			if plen > 0 {
				mask = ^uint32(0) << (32 - plen)
			}
			prefix := r.Uint32() & mask
			route := Route{OutPort: r.Intn(64)}
			must(t, tbl.Insert(prefix, plen, route))
			k := uint64(prefix)<<8 | uint64(plen)
			if j, ok := seen[k]; ok {
				entries[j].route = route
			} else {
				seen[k] = len(entries)
				entries = append(entries, naiveEntry{prefix, plen, route})
			}
		}
		// Remove a third of them.
		for i := 0; i < len(entries)/3; i++ {
			e := entries[len(entries)-1-i]
			if !tbl.Remove(e.prefix, e.plen) {
				t.Fatal("Remove of installed prefix failed")
			}
		}
		entries = entries[:len(entries)-len(entries)/3]
		if tbl.Size() != len(entries) {
			t.Fatalf("Size = %d, want %d", tbl.Size(), len(entries))
		}
		for i := 0; i < 1000; i++ {
			ip := r.Uint32()
			if r.Intn(2) == 0 && len(entries) > 0 {
				// Bias half the probes to land inside a prefix.
				e := entries[r.Intn(len(entries))]
				var mask uint32
				if e.plen > 0 {
					mask = ^uint32(0) << (32 - e.plen)
				}
				ip = e.prefix&mask | ip&^mask
			}
			got, gok := tbl.Lookup(ip)
			want, wok := naiveLookup(entries, ip)
			if gok != wok || got != want {
				t.Fatalf("Lookup(%#08x) = %+v,%v; naive %+v,%v",
					ip, got, gok, want, wok)
			}
		}
	}
}
