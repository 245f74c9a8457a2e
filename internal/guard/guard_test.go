package guard

import (
	"math"
	"testing"

	"repro/internal/mem"
	"repro/internal/netsim"
)

func TestPermString(t *testing.T) {
	cases := []struct {
		p    Perm
		want string
	}{{0, "--"}, {PermRead, "r-"}, {PermWrite, "-w"}, {PermRW, "rw"}}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("Perm(%d).String() = %q, want %q", c.p, got, c.want)
		}
	}
}

func TestDefaultACL(t *testing.T) {
	a := DefaultACL()
	reads := []mem.Namespace{mem.NSSwitch, mem.NSPort, mem.NSQueue, mem.NSPacket, mem.NSSRAM, mem.NSPortAbs}
	for _, ns := range reads {
		if !a.Allows(ns, false) {
			t.Errorf("DefaultACL denies read of %v", ns)
		}
	}
	if !a.Allows(mem.NSSRAM, true) {
		t.Error("DefaultACL denies the tenant's own SRAM writes")
	}
	for _, ns := range []mem.Namespace{mem.NSSwitch, mem.NSPort, mem.NSQueue, mem.NSPacket, mem.NSPortAbs} {
		if a.Allows(ns, true) {
			t.Errorf("DefaultACL allows write to shared namespace %v", ns)
		}
	}
	if a.Allows(mem.NSInvalid, false) || a.Allows(mem.NSInvalid, true) {
		t.Error("ACL grants access to the invalid namespace")
	}
}

func TestControlACLAddsPortWrites(t *testing.T) {
	a := ControlACL()
	if !a.Allows(mem.NSPort, true) || !a.Allows(mem.NSPortAbs, true) {
		t.Error("ControlACL must allow port scratch writes for control loops")
	}
	if a.Allows(mem.NSSwitch, true) {
		t.Error("ControlACL must not allow switch config writes")
	}
}

func TestGrantRelocation(t *testing.T) {
	g := Grant{
		ACL:       DefaultACL(),
		Partition: mem.Region{Base: mem.SRAMBase + 0x100, Words: 16},
	}
	// Tenant word 0 lands at the partition base.
	phys, ok := g.Relocate(mem.SRAMBase)
	if !ok || phys != mem.SRAMBase+0x100 {
		t.Fatalf("Relocate(word 0) = %#x, %v; want %#x", phys, ok, mem.SRAMBase+0x100)
	}
	// The last in-bounds word lands at the partition's last word.
	phys, ok = g.Relocate(mem.SRAMBase + 15)
	if !ok || phys != mem.SRAMBase+0x10F {
		t.Fatalf("Relocate(word 15) = %#x, %v; want %#x", phys, ok, mem.SRAMBase+0x10F)
	}
	// One past the bound is out of partition.
	if _, ok := g.Relocate(mem.SRAMBase + 16); ok {
		t.Error("Relocate accepted an address past the partition bound")
	}
	// A forged physical-looking address far above the grant is denied,
	// not aliased into someone else's partition.
	if _, ok := g.CheckStore(mem.SRAMBase + 0x700); ok {
		t.Error("CheckStore accepted a forged out-of-partition address")
	}
	// Non-SRAM addresses pass through unrelocated when the ACL allows.
	phys, ok = g.CheckLoad(mem.QueueBase)
	if !ok || phys != mem.QueueBase {
		t.Fatalf("CheckLoad(queue stat) = %#x, %v; want identity", phys, ok)
	}
	// ...and are denied when it does not.
	if _, ok := g.CheckStore(mem.PortBase + mem.PortScratchBase); ok {
		t.Error("DefaultACL grant allowed a port scratch store")
	}
}

func TestOperatorGrantIsIdentity(t *testing.T) {
	g := OperatorGrant()
	for _, a := range []mem.Addr{mem.SRAMBase, mem.SRAMBase + 1, mem.SRAMBase + mem.SRAMWords - 1} {
		phys, ok := g.CheckStore(a)
		if !ok || phys != a {
			t.Fatalf("operator CheckStore(%#x) = %#x, %v; want identity", a, phys, ok)
		}
	}
	if _, ok := g.CheckStore(mem.SwitchBase); !ok {
		t.Error("operator denied a switch namespace store")
	}
}

func TestTableGrantRevoke(t *testing.T) {
	tb := NewTable(mem.NewAllocator())
	register := func(id TenantID, words int) (mem.Region, error) {
		g, err := tb.Register(id, DefaultACL(), words, 0, 0)
		return g.Partition, err
	}
	r1, err := register(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Base != mem.SRAMBase || r1.Words != 64 {
		t.Fatalf("first grant = %+v, want base of bank", r1)
	}
	r2, err := register(2, 32)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Base != r1.End() {
		t.Fatalf("second grant at %#x, want packed at %#x", r2.Base, r1.End())
	}
	if _, err := register(2, 8); err == nil {
		t.Error("double grant succeeded")
	}
	if _, err := register(Operator, 8); err == nil {
		t.Error("operator grant succeeded")
	}
	if _, err := register(3, mem.SRAMWords); err == nil {
		t.Error("oversized grant succeeded with the bank partly taken")
	}
	if _, ok := tb.Lookup(3); ok {
		t.Error("failed grant left tenant 3 registered")
	}
	got, err := tb.Deregister(1)
	if err != nil || got != r1 {
		t.Fatalf("Deregister(1) = %+v, %v; want %+v", got, err, r1)
	}
	// The freed gap is reused first-fit.
	r3, err := register(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r3 != r1 {
		t.Fatalf("freed gap not reused: got %+v want %+v", r3, r1)
	}
	if ids := tb.Tenants(); len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("Tenants() = %v, want [2 3]", ids)
	}
	if g, ok := tb.Lookup(3); !ok || g.Partition != r3 {
		t.Fatalf("Lookup(3).Partition = %+v, %v; want %+v", g.Partition, ok, r3)
	}
}

func TestTableLookupAndDefaults(t *testing.T) {
	tb := NewTable(mem.NewAllocator())
	if _, ok := tb.Lookup(7); ok {
		t.Error("unregistered tenant resolved to a grant")
	}
	g, ok := tb.Lookup(Operator)
	if !ok || g.Partition.Words != mem.SRAMWords {
		t.Fatalf("operator lookup = %+v, %v", g, ok)
	}
	got, err := tb.Register(7, DefaultACL(), 64, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Weight != 1 || got.Burst != DefaultBurst {
		t.Fatalf("defaults not resolved: %+v", got)
	}
	if _, err := tb.Register(Operator, OperatorACL(), 8, 1, 1); err == nil {
		t.Error("registering the operator succeeded")
	}
	reg, err := tb.Deregister(7)
	if err != nil || reg != got.Partition {
		t.Fatalf("Deregister = %+v, %v", reg, err)
	}
	if _, ok := tb.Lookup(7); ok {
		t.Error("deregistered tenant still resolves")
	}
}

func TestTableAdmitWeightedShare(t *testing.T) {
	tb := NewTable(mem.NewAllocator())
	// Tenant 1 holds 3x tenant 2's weight; burst 4 leaves headroom for
	// its 3-token refill below, burst 2 caps tenant 2.
	if _, err := tb.Register(1, DefaultACL(), 8, 3, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Register(2, DefaultACL(), 8, 1, 2); err != nil {
		t.Fatal(err)
	}
	const rate = 4000.0 // aggregate TPP/s: tenant 1 refills at 3000/s, tenant 2 at 1000/s
	now := netsim.Time(0)

	// Drain both bursts.
	for i := 0; i < 4; i++ {
		if !tb.Admit(1, now, rate) {
			t.Fatal("full bucket refused a token")
		}
	}
	for i := 0; i < 2; i++ {
		if !tb.Admit(2, now, rate) {
			t.Fatal("full bucket refused a token")
		}
	}
	if tb.Admit(1, now, rate) || tb.Admit(2, now, rate) {
		t.Fatal("empty bucket admitted")
	}
	if tb.Throttled(1) != 1 || tb.Throttled(2) != 1 {
		t.Fatalf("throttle counts = %d, %d; want 1, 1", tb.Throttled(1), tb.Throttled(2))
	}

	// After 1ms tenant 1 has earned 3 tokens, tenant 2 only 1.
	now += netsim.Millisecond
	for i := 0; i < 3; i++ {
		if !tb.Admit(1, now, rate) {
			t.Fatalf("tenant 1 refused on token %d of its 3-token refill", i)
		}
	}
	if tb.Admit(1, now, rate) {
		t.Error("tenant 1 admitted past its weighted share")
	}
	if !tb.Admit(2, now, rate) {
		t.Error("tenant 2 refused its single refilled token")
	}
	if tb.Admit(2, now, rate) {
		t.Error("tenant 2 admitted past its weighted share")
	}

	// Operator bypasses; unknown tenants have no bucket; rate 0 opens
	// the gate.
	if !tb.Admit(Operator, now, rate) {
		t.Error("operator throttled")
	}
	if tb.Admit(99, now, rate) {
		t.Error("unknown tenant admitted")
	}
	if !tb.Admit(99, now, 0) {
		t.Error("disabled gate throttled")
	}

	// Reboot refills both buckets.
	tb.ResetBuckets(now)
	if !tb.Admit(1, now, rate) || !tb.Admit(2, now, rate) {
		t.Error("ResetBuckets did not refill")
	}
}

func TestTableDeniedAccounting(t *testing.T) {
	tb := NewTable(mem.NewAllocator())
	if _, err := tb.Register(5, DefaultACL(), 8, 1, 1); err != nil {
		t.Fatal(err)
	}
	tb.NoteDenied(5)
	tb.NoteDenied(5)
	tb.NoteDenied(99) // unknown: dropped, not a crash
	if got := tb.Denied(5); got != 2 {
		t.Fatalf("Denied(5) = %d, want 2", got)
	}
	if got := tb.Denied(99); got != 0 {
		t.Fatalf("Denied(99) = %d, want 0", got)
	}
}

// TestRegisterRejectsNonFiniteWeight: a NaN or infinite weight would
// poison the weight sum, and with it every tenant's refill share, so
// Register refuses it and leaves the table as it was.
func TestRegisterRejectsNonFiniteWeight(t *testing.T) {
	tb := NewTable(mem.NewAllocator())
	if _, err := tb.Register(1, DefaultACL(), 8, 1, 2); err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := tb.Register(2, DefaultACL(), 8, w, 0); err == nil {
			t.Fatalf("Register accepted weight %v", w)
		}
		if _, ok := tb.Lookup(2); ok {
			t.Fatalf("weight %v left tenant 2 registered", w)
		}
	}
	// Tenant 1 still throttles: its share was not poisoned.
	const now = netsim.Time(1)
	admitted := 0
	for i := 0; i < 1000; i++ {
		if tb.Admit(1, now, 4000) {
			admitted++
		}
	}
	if admitted != 2 {
		t.Fatalf("tenant 1 admitted %d of 1000 at t = 1 ns, want its burst of 2", admitted)
	}
	// The partition a rejected Register would have carved is still free.
	if g, err := tb.Register(2, DefaultACL(), 8, 1, 0); err != nil || g.Partition.Base != mem.SRAMBase+8 {
		t.Fatalf("Register after rejections = %+v, %v; want the words right after tenant 1", g, err)
	}
}
