package mem

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestAllocatorBasic(t *testing.T) {
	al := NewAllocator()
	rcp, err := al.Alloc("rcp", 64)
	if err != nil {
		t.Fatal(err)
	}
	ndb, err := al.Alloc("ndb", 128)
	if err != nil {
		t.Fatal(err)
	}
	if rcp.End() > ndb.Base && ndb.End() > rcp.Base {
		t.Fatal("regions overlap")
	}
	if got, ok := al.Lookup("rcp"); !ok || got != rcp {
		t.Fatal("Lookup mismatch")
	}
	if owner, ok := ownerOf(al, rcp.Base+3); !ok || owner != (Owner{Task: "rcp"}) {
		t.Fatalf("owner = %v, %v", owner, ok)
	}
	if _, ok := ownerOf(al, SRAMBase+SRAMWords-1); ok {
		t.Fatal("unallocated address has an owner")
	}
	tenant, err := al.Grant(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if owner, ok := ownerOf(al, tenant.Base); !ok || owner != (Owner{Tenant: 3}) {
		t.Fatalf("owner = %v, %v", owner, ok)
	}
	want := []Held{{Owner{Task: "ndb"}, ndb}, {Owner{Task: "rcp"}, rcp}, {Owner{Tenant: 3}, tenant}}
	if got := al.Held(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Held = %v, want %v", got, want)
	}
}

func TestAllocatorDuplicateTask(t *testing.T) {
	al := NewAllocator()
	if _, err := al.Alloc("rcp", 8); err != nil {
		t.Fatal(err)
	}
	if _, err := al.Alloc("rcp", 8); err == nil {
		t.Fatal("duplicate allocation accepted")
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	al := NewAllocator()
	if _, err := al.Alloc("big", SRAMWords); err != nil {
		t.Fatalf("full-SRAM allocation should succeed: %v", err)
	}
	if _, err := al.Alloc("more", 1); err == nil {
		t.Fatal("over-allocation accepted")
	}
}

func TestAllocatorBadRequests(t *testing.T) {
	al := NewAllocator()
	if _, err := al.Alloc("t", 0); err == nil {
		t.Fatal("zero-word allocation accepted")
	}
	if _, err := al.Alloc("t", -5); err == nil {
		t.Fatal("negative allocation accepted")
	}
	if err := al.Free("ghost"); err == nil {
		t.Fatal("freeing unknown task succeeded")
	}
	if _, err := al.Grant(0, 8); err == nil {
		t.Fatal("the operator tenant was granted a partition")
	}
	if err := al.Revoke(9); err == nil {
		t.Fatal("revoking an unknown tenant succeeded")
	}
}

func TestAllocatorReuseAfterFree(t *testing.T) {
	al := NewAllocator()
	a, _ := al.Alloc("a", 100)
	if _, err := al.Alloc("b", SRAMWords-100); err != nil {
		t.Fatal(err)
	}
	if err := al.Free("a"); err != nil {
		t.Fatal(err)
	}
	a2, err := al.Alloc("c", 100)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a {
		t.Fatalf("freed hole not reused: got %+v, want %+v", a2, a)
	}
}

// Property: after any sequence of random allocs and frees, live regions
// never overlap and always stay within the SRAM bank.
func TestAllocatorInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	al := NewAllocator()
	live := make(map[string]bool)
	for i := 0; i < 500; i++ {
		name := string(rune('a' + r.Intn(20)))
		if live[name] && r.Intn(2) == 0 {
			if err := al.Free(name); err != nil {
				t.Fatal(err)
			}
			delete(live, name)
			continue
		}
		if !live[name] {
			if _, err := al.Alloc(name, 1+r.Intn(200)); err == nil {
				live[name] = true
			}
		}
		var regs []Region
		for task := range live {
			reg, ok := al.Lookup(task)
			if !ok {
				t.Fatalf("live task %q has no region", task)
			}
			if reg.Base < SRAMBase || int(reg.End()) > int(SRAMBase)+SRAMWords {
				t.Fatalf("region %+v outside SRAM", reg)
			}
			regs = append(regs, reg)
		}
		for i := range regs {
			for j := i + 1; j < len(regs); j++ {
				if regs[i].Base < regs[j].End() && regs[j].Base < regs[i].End() {
					t.Fatalf("regions overlap: %+v %+v", regs[i], regs[j])
				}
			}
		}
	}
}

func TestRegionContains(t *testing.T) {
	r := Region{Base: SRAMBase + 10, Words: 5}
	if !r.Contains(SRAMBase+10) || !r.Contains(SRAMBase+14) {
		t.Error("region must contain its own words")
	}
	if r.Contains(SRAMBase+9) || r.Contains(SRAMBase+15) {
		t.Error("region contains foreign words")
	}
}

func TestAccessErrorMessages(t *testing.T) {
	e := &AccessError{Addr: PortBase + PortQueueSize, Write: true, Cause: ReadOnly}
	if msg := e.Error(); msg == "" || !contains(msg, "read-only") || !contains(msg, "Link") {
		t.Errorf("read-only message = %q", msg)
	}
	u := ErrUnmapped(0x50, false)
	if msg := u.Error(); !contains(msg, "unmapped") || !contains(msg, "load") {
		t.Errorf("ErrUnmapped message = %q", msg)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// ownerOf returns the holder of the region containing address a, read
// off Held.
func ownerOf(al *Allocator, a Addr) (Owner, bool) {
	for _, h := range al.Held() {
		if h.Region.Contains(a) {
			return h.Owner, true
		}
	}
	return Owner{}, false
}
