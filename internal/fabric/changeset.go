package fabric

import (
	"fmt"
	"strings"

	"repro/internal/guard"
)

// OpKind orders the mutations inside one device's change: removals
// first (frees SRAM words and TCAM slots before the adds that may need
// them), then grants and allocations, then routing.  The numeric order
// IS the apply order.
type OpKind uint8

const (
	OpRevokeTenant OpKind = iota
	OpFreeService
	OpRemoveRoute
	OpRemovePrefix
	OpGrantTenant
	OpAllocService
	OpAddRoute
	OpUpdateRoute
	OpAddPrefix
	// OpDetour is informational, not a mutation: a band route differs
	// from spec because a dataplane reflex arm steered it onto its
	// pre-authorized backup next-hop.  Apply skips it (the controller
	// must not fight an emergency rewrite for a link it has not yet
	// verified healthy); Verify tolerates it.  The operator resolves it
	// by ratifying the detour into spec or converging after the reflex
	// reverts.
	OpDetour
)

var opKindNames = [...]string{
	OpRevokeTenant: "revoke-tenant",
	OpFreeService:  "free-service",
	OpRemoveRoute:  "remove-route",
	OpRemovePrefix: "remove-prefix",
	OpGrantTenant:  "grant-tenant",
	OpAllocService: "alloc-service",
	OpAddRoute:     "add-route",
	OpUpdateRoute:  "update-route",
	OpAddPrefix:    "add-prefix",
	OpDetour:       "detour",
}

// String names the op kind.
func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return "unknown"
}

// Op is one per-switch mutation.  Which payload field is meaningful
// depends on Kind: Tenant/ACL for tenant ops, Service for service ops,
// Route (+EntryID for update/remove) for TCAM ops, Prefix for L3 ops.
type Op struct {
	Kind    OpKind
	Tenant  Tenant
	ACL     guard.ACL
	Service Service
	Route   Route
	Prefix  Prefix
	// EntryID is the live TCAM entry an update or removal targets,
	// captured from read-back so the write hits exactly the entry the
	// diff saw (the versioned-TCAM write discipline).
	EntryID uint32
	// BackupPort is the reflex-installed next-hop of a detour op; the
	// Route field carries the spec's (primary) routing.
	BackupPort int
}

// String renders one op in the dry-run's diff notation.
func (o Op) String() string {
	switch o.Kind {
	case OpRevokeTenant:
		return fmt.Sprintf("- tenant %d", o.Tenant.ID)
	case OpFreeService:
		return fmt.Sprintf("- service %s", o.Service.Name)
	case OpRemoveRoute:
		return fmt.Sprintf("- route dst=%s prio=%d (entry %d)", ipString(o.Route.DstIP), o.Route.Priority, o.EntryID)
	case OpRemovePrefix:
		return fmt.Sprintf("- prefix %s/%d", ipString(o.Prefix.Addr), o.Prefix.Len)
	case OpGrantTenant:
		return fmt.Sprintf("+ tenant %d policy=%s words=%d weight=%g burst=%d",
			o.Tenant.ID, policyOf(o.ACL), o.Tenant.Words, o.Tenant.Weight, o.Tenant.Burst)
	case OpAllocService:
		return fmt.Sprintf("+ service %s words=%d seed=%d", o.Service.Name, o.Service.Words, len(o.Service.Seed))
	case OpAddRoute:
		return fmt.Sprintf("+ route dst=%s prio=%d -> %s", ipString(o.Route.DstIP), o.Route.Priority, o.Route.targetString())
	case OpUpdateRoute:
		return fmt.Sprintf("~ route dst=%s prio=%d -> %s (entry %d)",
			ipString(o.Route.DstIP), o.Route.Priority, o.Route.targetString(), o.EntryID)
	case OpAddPrefix:
		return fmt.Sprintf("+ prefix %s/%d -> port %d", ipString(o.Prefix.Addr), o.Prefix.Len, o.Prefix.OutPort)
	case OpDetour:
		return fmt.Sprintf("= detour dst=%s prio=%d port %d ~> %d (entry %d, reflex)",
			ipString(o.Route.DstIP), o.Route.Priority, o.Route.OutPort, o.BackupPort, o.EntryID)
	}
	return "?"
}

func (r Route) targetString() string {
	if r.Drop {
		return "drop"
	}
	return fmt.Sprintf("port %d", r.OutPort)
}

// DeviceChange is one device's ordered mutations plus the epoch the
// diff read them against.  Apply stamps every write with BaseEpoch: a
// device whose live epoch moved since the diff is not touched.
type DeviceChange struct {
	Device    string
	BaseEpoch uint32
	Ops       []Op
	// spec is the normalized device spec the diff computed Ops from;
	// Apply re-diffs the written device against it.
	spec DeviceSpec
}

// ChangeSet is the full diff output: per-device mutations in device
// name order.  Devices already at spec carry no DeviceChange.
type ChangeSet struct {
	Devices []DeviceChange
}

// Empty reports the converged fixpoint: nothing to apply.
func (cs ChangeSet) Empty() bool {
	for _, d := range cs.Devices {
		if len(d.Ops) > 0 {
			return false
		}
	}
	return true
}

// Ops counts the ops across all devices, informational detours
// included.
func (cs ChangeSet) Ops() int {
	n := 0
	for _, d := range cs.Devices {
		n += len(d.Ops)
	}
	return n
}

// Mutations counts the ops Apply would actually write — everything
// except informational detour ops.
func (cs ChangeSet) Mutations() int {
	n := 0
	for _, d := range cs.Devices {
		m, _ := mutations(d.Ops)
		n += m
	}
	return n
}

// mutations counts the ops that are not informational detours and
// returns the first of them.
func mutations(ops []Op) (n int, first Op) {
	for _, op := range ops {
		if op.Kind == OpDetour {
			continue
		}
		if n == 0 {
			first = op
		}
		n++
	}
	return n, first
}

// shortOfSpec is the verdict on a device whose diff is ops: empty when
// every op is an informational detour.  Verify and Apply's read-back
// both judge a device by it.
func shortOfSpec(ops []Op) string {
	n, first := mutations(ops)
	if n == 0 {
		return ""
	}
	return fmt.Sprintf("%d ops short of spec (first: %s)", n, first)
}

// Detours collects the informational detour ops across all devices, in
// device then op order.
func (cs ChangeSet) Detours() []Op {
	var out []Op
	for _, d := range cs.Devices {
		for _, op := range d.Ops {
			if op.Kind == OpDetour {
				out = append(out, op)
			}
		}
	}
	return out
}

// String renders the canonical dry-run listing.  The rendering is a
// pure function of the ChangeSet value, so byte-identical output is the
// determinism contract the regression suite pins.
func (cs ChangeSet) String() string {
	if cs.Empty() {
		return "changeset: empty (live state matches spec)\n"
	}
	var b strings.Builder
	for _, d := range cs.Devices {
		if len(d.Ops) == 0 {
			continue
		}
		fmt.Fprintf(&b, "device %s (base epoch %d)\n", d.Device, d.BaseEpoch)
		for _, op := range d.Ops {
			fmt.Fprintf(&b, "  %s\n", op)
		}
	}
	return b.String()
}
