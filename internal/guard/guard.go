package guard

import (
	"fmt"

	"repro/internal/mem"
)

// TenantID identifies one isolation principal.  It travels in the TPP
// header's reserved byte, stamped and sealed by the trusted edge
// (endhost.NIC), so switches can attribute every access to a tenant.
type TenantID uint8

// Operator is the distinguished infrastructure tenant: the control
// plane's own TPPs (allocator agents, debuggers) run under it with
// every permission and an identity SRAM mapping.  It is the zero value,
// so untenanted legacy traffic is operator traffic — the trusted edge
// is what keeps guests from claiming it.
const Operator TenantID = 0

// Poison is the value a denied LOAD returns.  It is deliberately loud:
// a tenant reading memory outside its grant sees this constant, never
// another tenant's data.
const Poison uint32 = 0xdead10cc

// Perm is a read/write permission bit pair.
type Perm uint8

// Permission bits.
const (
	PermRead  Perm = 1 << 0
	PermWrite Perm = 1 << 1
	PermRW         = PermRead | PermWrite
)

// String renders the pair as "r-", "-w", "rw" or "--".
func (p Perm) String() string {
	s := [2]byte{'-', '-'}
	if p&PermRead != 0 {
		s[0] = 'r'
	}
	if p&PermWrite != 0 {
		s[1] = 'w'
	}
	return string(s[:])
}

// ACL is a per-namespace permission table.  The SRAM entry applies
// inside the tenant's partition only — outside it every access is
// denied regardless of the ACL.  Permissions only narrow the base
// protection map: granting PermWrite on the Switch namespace does not
// make statistics registers writable, it merely stops the guard from
// being the reason a store fails.
type ACL struct {
	Switch  Perm // [Switch:*] statistics and config words
	Port    Perm // [Link:*] including the task scratch words
	Queue   Perm // [Queue:*] statistics
	Packet  Perm // [PacketMetadata:*] registers
	SRAM    Perm // the tenant's own partition
	PortAbs Perm // the absolute per-port statistics window
}

// bits packs the six permission pairs into one mask, two bits per
// namespace at bit 2*ns (read) and 2*ns+1 (write).  NSInvalid's pair
// and every namespace past PortAbs stay zero: they carry no
// permissions.
func (a ACL) bits() uint16 {
	return uint16(a.Switch&PermRW)<<(2*mem.NSSwitch) |
		uint16(a.Port&PermRW)<<(2*mem.NSPort) |
		uint16(a.Queue&PermRW)<<(2*mem.NSQueue) |
		uint16(a.Packet&PermRW)<<(2*mem.NSPacket) |
		uint16(a.SRAM&PermRW)<<(2*mem.NSSRAM) |
		uint16(a.PortAbs&PermRW)<<(2*mem.NSPortAbs)
}

// Allows reports whether the ACL grants the access class (write=false
// is a load) on namespace ns: one bit test on the packed mask.
//
//alloc:free
func (a ACL) Allows(ns mem.Namespace, write bool) bool {
	bit := 2 * uint(ns)
	if write {
		bit++
	}
	return a.bits()>>bit&1 != 0
}

// DefaultACL is the standard tenant policy: every statistics namespace
// readable (queue depths, link utilization and switch counters are the
// telemetry the paper's network tasks live on), the tenant's own SRAM
// partition read-write, and no write access to shared state — in
// particular not to the per-port task scratch words, which carry
// cross-tenant control state like the RCP rate register.
func DefaultACL() ACL {
	return ACL{
		Switch:  PermRead,
		Port:    PermRead,
		Queue:   PermRead,
		Packet:  PermRead,
		SRAM:    PermRW,
		PortAbs: PermRead,
	}
}

// ControlACL is DefaultACL plus write access to the per-port task
// scratch words (the Link and PortAbs namespaces): the policy for
// tenants running in-network control loops such as RCP*, whose update
// phase stores into [Link:RCP-RateRegister].
func ControlACL() ACL {
	a := DefaultACL()
	a.Port = PermRW
	a.PortAbs = PermRW
	return a
}

// OperatorACL holds every permission; combined with the operator's
// whole-bank partition it reproduces the unguarded memory map exactly.
func OperatorACL() ACL {
	return ACL{Switch: PermRW, Port: PermRW, Queue: PermRW,
		Packet: PermRW, SRAM: PermRW, PortAbs: PermRW}
}

// Grant is one tenant's complete entitlement on one switch: its ACL,
// its SRAM partition, and its share of the TCPU admission budget.  The
// static verifier and the dynamic guard both decide through Grant
// methods, which is what makes "verified against the grant" imply
// "never denied at runtime".
type Grant struct {
	ACL ACL
	// Partition is the tenant's physical SRAM region.  Tenant programs
	// never see physical addresses: they address words 0..Words-1 of
	// the partition as mem.SRAMBase+0..Words-1 and the guard relocates.
	Partition mem.Region
	// Weight is the tenant's share of the switch's aggregate TPP
	// admission rate; refill is TPPRate * Weight / ΣWeights.
	Weight float64
	// Burst is the tenant's token bucket depth.
	Burst int
}

// Words returns the partition size in words.
func (g *Grant) Words() int { return g.Partition.Words }

// Relocate applies base+bounds relocation to tenant-relative SRAM
// address a, returning the physical address.  ok is false when a is
// outside the partition (or not an SRAM address at all).  Relocation
// is a bijection from the tenant's 0..Words-1 window onto the physical
// partition — property-tested in partition_prop_test.go.
func (g *Grant) Relocate(a mem.Addr) (mem.Addr, bool) {
	k := mem.SRAMIndex(a)
	if k < 0 || k >= g.Partition.Words {
		return a, false
	}
	return g.Partition.Base + mem.Addr(k), true
}

// CheckLoad decides a LOAD of address a under this grant: phys is the
// (possibly relocated) address to read, ok is false when the guard
// denies the access.  Non-SRAM addresses are never relocated.
//
//alloc:free
func (g *Grant) CheckLoad(a mem.Addr) (phys mem.Addr, ok bool) {
	return g.check(a, false)
}

// CheckStore decides a STORE to address a under this grant.
//
//alloc:free
func (g *Grant) CheckStore(a mem.Addr) (phys mem.Addr, ok bool) {
	return g.check(a, true)
}

//alloc:free
func (g *Grant) check(a mem.Addr, write bool) (mem.Addr, bool) {
	ns := mem.NamespaceOf(a)
	if !g.ACL.Allows(ns, write) {
		return a, false
	}
	if ns == mem.NSSRAM {
		return g.Relocate(a)
	}
	return a, true
}

// OperatorGrant returns the built-in entitlement of the infrastructure
// tenant: every permission, the whole SRAM bank as an identity-mapped
// partition, and admission exempt from the per-tenant buckets (weight
// zero is special-cased by Table.Admit).
func OperatorGrant() Grant {
	return Grant{
		ACL:       OperatorACL(),
		Partition: mem.Region{Base: mem.SRAMBase, Words: mem.SRAMWords},
	}
}

// String summarizes the grant for diagnostics.
func (g *Grant) String() string {
	return fmt.Sprintf("guard: partition [%#x,+%d) weight %g burst %d",
		uint16(g.Partition.Base), g.Partition.Words, g.Weight, g.Burst)
}
