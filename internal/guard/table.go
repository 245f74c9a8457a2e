package guard

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/netsim"
)

// DefaultBurst is a tenant's token bucket depth when registered without
// an explicit burst, mirroring the global gate's default.
const DefaultBurst = 8

// tenantState is one tenant's runtime record: its grant (config) plus
// the soft state the grant governs — admission bucket and denial
// accounting.
type tenantState struct {
	grant Grant

	// Admission token bucket (soft state, refilled on reboot).
	tokens   float64
	refillAt netsim.Time

	// Cumulative accounting, one increment per event so the switch
	// counter, the metric and the span stream reconcile exactly.
	denied    uint64 // guarded accesses denied (poisoned loads + dropped stores)
	throttled uint64 // TPPs declined by this tenant's bucket
}

// Table is the switch-resident tenant registry: every grant in force on
// one switch, plus the per-tenant admission buckets that split the
// switch's aggregate TPP budget by weighted share.  The operator tenant
// is built in — always present, never registered, exempt from
// admission — so an unguarded switch and a guarded switch carrying only
// operator traffic behave identically.
//
// Table is not safe for concurrent use; the simulated dataplane is
// single-threaded per switch and the control plane serializes tenancy
// changes.
type Table struct {
	sram *mem.Allocator
	// tenants is indexed by TenantID; a nil slot, or an id past the
	// end, is an unregistered tenant.  The slice grows to the largest
	// id ever registered and never shrinks.
	tenants   []*tenantState
	weightSum float64
}

// NewTable builds an empty tenant table whose partitions are carved
// from sram — the switch's one SRAM allocator, shared with operator
// tasks, so a partition and a task region can never overlap.
func NewTable(sram *mem.Allocator) *Table {
	return &Table{sram: sram}
}

// state returns tenant id's record, or nil when id is not registered.
func (t *Table) state(id TenantID) *tenantState {
	if int(id) < len(t.tenants) {
		return t.tenants[id]
	}
	return nil
}

// Register admits tenant id with the given policy: acl governs its
// namespace access, words sizes its SRAM partition, weight its share of
// the switch's aggregate TPP admission rate, and burst its bucket
// depth.  Zero weight resolves to 1 and zero burst to DefaultBurst.
// The new bucket starts full.  Registering the operator or an already
// registered tenant, or with a NaN or infinite weight, fails without
// changing state.
func (t *Table) Register(id TenantID, acl ACL, words int, weight float64, burst int) (Grant, error) {
	if id == Operator {
		return Grant{}, fmt.Errorf("guard: the operator tenant is built in")
	}
	if t.state(id) != nil {
		return Grant{}, fmt.Errorf("guard: tenant %d already registered", id)
	}
	// A NaN weight would poison weightSum, and with it every tenant's
	// refill share: no bucket would ever read empty again.
	if math.IsNaN(weight) || math.IsInf(weight, 0) {
		return Grant{}, fmt.Errorf("guard: tenant %d weight %g is not finite", id, weight)
	}
	if weight <= 0 {
		weight = 1
	}
	if burst <= 0 {
		burst = DefaultBurst
	}
	reg, err := t.sram.Grant(uint8(id), words)
	if err != nil {
		return Grant{}, err
	}
	g := Grant{ACL: acl, Partition: reg, Weight: weight, Burst: burst}
	if int(id) >= len(t.tenants) {
		t.tenants = append(t.tenants, make([]*tenantState, int(id)+1-len(t.tenants))...)
	}
	t.tenants[id] = &tenantState{grant: g, tokens: float64(burst)}
	t.weightSum += weight
	return g, nil
}

// Deregister removes tenant id, returning its partition so the caller
// can zero the words before they are re-granted.
func (t *Table) Deregister(id TenantID) (mem.Region, error) {
	st := t.state(id)
	if st == nil {
		return mem.Region{}, fmt.Errorf("guard: tenant %d not registered", id)
	}
	if err := t.sram.Revoke(uint8(id)); err != nil {
		return mem.Region{}, err
	}
	t.weightSum -= st.grant.Weight
	t.tenants[id] = nil
	return st.grant.Partition, nil
}

// Lookup returns tenant id's grant.  The operator always resolves to
// its built-in whole-bank grant; an unregistered tenant resolves to
// nothing, and the guard denies it everything.
//
//alloc:free
func (t *Table) Lookup(id TenantID) (Grant, bool) {
	if id == Operator {
		return OperatorGrant(), true
	}
	st := t.state(id)
	if st == nil {
		return Grant{}, false
	}
	return st.grant, true
}

// Admit charges tenant id's bucket one TPP execution at simulated time
// now, where rate is the switch's aggregate admission rate (TPPRate).
// The tenant's refill share is rate * Weight / ΣWeights, so a flooding
// tenant drains only its own bucket.  The operator is exempt, a
// non-positive rate disables the gate, and an unregistered tenant has
// no bucket to charge — its TPPs are throttled, not executed.
//
//alloc:free
func (t *Table) Admit(id TenantID, now netsim.Time, rate float64) bool {
	if id == Operator || rate <= 0 {
		return true
	}
	st := t.state(id)
	if st == nil {
		return false
	}
	if now > st.refillAt {
		share := rate * st.grant.Weight / t.weightSum
		st.tokens += (now - st.refillAt).Seconds() * share
		if max := float64(st.grant.Burst); st.tokens > max {
			st.tokens = max
		}
	}
	st.refillAt = now
	if st.tokens < 1 {
		st.throttled++
		return false
	}
	st.tokens--
	return true
}

// NoteDenied records one denied guarded access for tenant id (the
// memory-stage counterpart of the switch's tpps_denied count and the
// StageAccessDeny span).  An unregistered tenant has no state here, so
// its denials are dropped: Denied reads 0 for it, while the switch still
// counts them, in total and under the tenant id the TPP carried.
func (t *Table) NoteDenied(id TenantID) {
	if st := t.state(id); st != nil {
		st.denied++
	}
}

// Denied returns tenant id's cumulative denied-access count.
func (t *Table) Denied(id TenantID) uint64 {
	if st := t.state(id); st != nil {
		return st.denied
	}
	return 0
}

// Throttled returns how many of tenant id's TPPs its bucket declined.
func (t *Table) Throttled(id TenantID) uint64 {
	if st := t.state(id); st != nil {
		return st.throttled
	}
	return 0
}

// Tenants returns the registered tenant ids, sorted (the operator is
// built in and not listed).
func (t *Table) Tenants() []TenantID {
	ids := make([]TenantID, 0, len(t.tenants))
	for id, st := range t.tenants {
		if st != nil {
			ids = append(ids, TenantID(id))
		}
	}
	return ids
}

// ResetBuckets refills every tenant's bucket and rebases its refill
// clock — the buckets are switch soft state, so a crash-restart boots
// them full just like the global gate.  Grants and cumulative denial
// accounting survive: they are config and host-visible history.
func (t *Table) ResetBuckets(now netsim.Time) {
	for _, st := range t.tenants {
		if st != nil {
			st.tokens = float64(st.grant.Burst)
			st.refillAt = now
		}
	}
}
