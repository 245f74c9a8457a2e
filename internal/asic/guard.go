package asic

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/mem"
	"repro/internal/obs"
)

// guardedView wraps the per-packet memory view with tenant enforcement:
// every address is decided through the tenant's Grant before it reaches
// the underlying view, SRAM addresses are relocated into the tenant's
// partition, and a denial fails forward — a denied LOAD returns the
// poison value and a denied STORE vanishes, both without an error, so
// the TCPU keeps executing and the packet keeps forwarding.  Each
// denial is one count (switch-wide and per tenant) and one span, and
// the count surfaces after execution as core.FlagAccessFault.
type guardedView struct {
	v      *view
	grant  guard.Grant
	tenant guard.TenantID
	denies uint64
}

var _ mem.View = (*guardedView)(nil)

func (g *guardedView) deny(a mem.Addr, write bool) {
	g.denies++
	s := g.v.sw
	s.tppsDenied++
	s.tenantDenied[g.tenant]++
	s.guard.NoteDenied(g.tenant)
	w := uint64(0)
	if write {
		w = 1
	}
	s.span(g.v.pkt, obs.StageAccessDeny, uint64(a)<<1|w, uint64(g.tenant))
}

// Load implements mem.View with fail-forward denial.
func (g *guardedView) Load(a mem.Addr) (uint32, error) {
	phys, ok := g.grant.CheckLoad(a)
	if !ok {
		g.deny(a, false)
		return guard.Poison, nil
	}
	return g.v.Load(phys)
}

// Store implements mem.View; a denied store is silently dropped.
func (g *guardedView) Store(a mem.Addr, val uint32) error {
	phys, ok := g.grant.CheckStore(a)
	if !ok {
		g.deny(a, true)
		return nil
	}
	return g.v.Store(phys, val)
}

// CondStore forwards the atomic compare-and-store under the same store
// permission; a denial returns the poison value, which reads as a
// failed comparison to the program.
func (g *guardedView) CondStore(a mem.Addr, cond, val uint32) (uint32, error) {
	phys, ok := g.grant.CheckStore(a)
	if !ok {
		g.deny(a, true)
		return guard.Poison, nil
	}
	return g.v.CondStore(phys, cond, val)
}

// Guard exposes the tenant table for control-plane configuration and
// reconciliation checks; nil when the guard is disabled.
func (s *Switch) Guard() *guard.Table { return s.guard }

// TPPsDenied returns the cumulative guarded accesses denied across all
// tenants (poisoned loads plus dropped stores).
func (s *Switch) TPPsDenied() uint64 { return s.tppsDenied }

// GrantTenant admits a tenant on this switch: acl is its namespace
// policy, words its SRAM partition size, weight its share of the TPP
// admission rate, burst its bucket depth (zeroes resolve to guard
// defaults).  The freshly carved partition is zeroed so a new tenant
// never reads a predecessor's residue.
func (s *Switch) GrantTenant(id guard.TenantID, acl guard.ACL, words int, weight float64, burst int) (guard.Grant, error) {
	if s.guard == nil {
		return guard.Grant{}, fmt.Errorf("asic: switch %d has no tenant guard", s.cfg.ID)
	}
	g, err := s.guard.Register(id, acl, words, weight, burst)
	if err != nil {
		return guard.Grant{}, err
	}
	s.ZeroRegion(g.Partition)
	// Guard state changed under the dataplane: flush the compiled
	// program cache so nothing produced before the grant can run after
	// it (defense in depth — compilations bake no grant state, but a
	// flush is cheap and makes staleness structurally impossible).
	s.progCache.Invalidate()
	return g, nil
}

// RevokeTenant tears a tenant down, zeroing its partition before the
// words can be re-granted — teardown never leaks one tenant's state
// into the next.
func (s *Switch) RevokeTenant(id guard.TenantID) error {
	if s.guard == nil {
		return fmt.Errorf("asic: switch %d has no tenant guard", s.cfg.ID)
	}
	reg, err := s.guard.Deregister(id)
	if err != nil {
		return err
	}
	s.ZeroRegion(reg)
	s.progCache.Invalidate() // see GrantTenant
	return nil
}

// ZeroRegion clears the SRAM words of a freshly carved or just-released
// region (control-plane access), so no owner — tenant or fabric
// service — reads a predecessor's residue.
func (s *Switch) ZeroRegion(r mem.Region) {
	base := mem.SRAMIndex(r.Base)
	clear(s.sram[base : base+r.Words])
}

// GuardedViewForTesting builds the tenant-enforced memory view the TCPU
// would execute tenant id's TPP against, for tests and the guard fuzz
// harness.  It falls back to the raw view when the guard is disabled.
func (s *Switch) GuardedViewForTesting(pkt *core.Packet, outPort int, id guard.TenantID) mem.View {
	if pkt == nil {
		pkt = &core.Packet{Meta: core.Metadata{OutPort: uint32(outPort), EnqueuedAt: int64(s.sim.Now())}}
	}
	v := &view{sw: s, pkt: pkt, port: s.ports[outPort]}
	if s.guard == nil {
		return v
	}
	g, _ := s.guard.Lookup(id) // unknown tenants get the zero grant: deny-all
	return &guardedView{v: v, grant: g, tenant: id}
}
