package fabric

import (
	"fmt"
	"sort"

	"repro/internal/asic"
	"repro/internal/guard"
	"repro/internal/l3"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/tcam"
)

// Controller drives registered switches from declarative Specs through
// the diff → ChangeSet → apply → verify lifecycle.
type Controller struct {
	sim     *netsim.Sim
	devices map[string]*asic.Switch
	detours map[string]DetourSource
}

// New builds a controller on the simulation clock (used by Converge's
// retry backoff).
func New(sim *netsim.Sim) *Controller {
	return &Controller{sim: sim, devices: make(map[string]*asic.Switch)}
}

// Register names a switch for spec addressing.  Re-registering a name
// replaces the mapping.
func (c *Controller) Register(name string, sw *asic.Switch) { c.devices[name] = sw }

// Diff reads every device the spec names back live and computes the
// ordered ChangeSet that would move it to spec.  Per-device read
// failures (dark or unknown devices, spec/device mismatches) come back
// as typed DeviceErrors alongside the changes for the devices that
// could be read; the error return is reserved for an invalid spec.
// Diff writes nothing: it IS the dry run.
func (c *Controller) Diff(spec Spec) (ChangeSet, []DeviceError, error) {
	ns, err := spec.Normalize()
	if err != nil {
		return ChangeSet{}, nil, err
	}
	cs, errs := c.diff(ns, nil)
	return cs, errs, nil
}

// diff is Diff over a normalized spec.  A non-nil seats sees every
// device state the diff reads back, so Verify checks congruence
// without a second read.
func (c *Controller) diff(ns Spec, seats *seating) (ChangeSet, []DeviceError) {
	var cs ChangeSet
	var errs []DeviceError
	for _, d := range ns.Devices {
		st, derr := c.ReadState(d.Device)
		if derr != nil {
			errs = append(errs, *derr)
			continue
		}
		if seats != nil {
			seats.check(d, st)
		}
		ops, derr := diffDevice(d, st, c.detoursFor(d.Device))
		if derr == nil {
			derr = checkPorts(d, c.devices[d.Device].Ports())
		}
		if derr != nil {
			errs = append(errs, *derr)
			continue
		}
		if len(ops) > 0 {
			cs.Devices = append(cs.Devices, DeviceChange{
				Device:    d.Device,
				BaseEpoch: st.Epoch,
				Ops:       ops,
				spec:      d,
			})
		}
	}
	return cs, errs
}

// checkPorts rejects a route or prefix that forwards to a port the
// device does not have: applied, it would verify field-for-field and
// blackhole every packet it matches.  Normalize cannot know the port
// count; the diff holds the device.  Drop routes carry no port.
func checkPorts(d DeviceSpec, ports int) *DeviceError {
	invalid := func(dst string, port int) *DeviceError {
		return &DeviceError{Device: d.Device, Kind: ErrSpecInvalid,
			Detail: fmt.Sprintf("%s -> port %d, but the device has ports 0..%d", dst, port, ports-1)}
	}
	for _, r := range d.Routes {
		if !r.Drop && (r.OutPort < 0 || r.OutPort >= ports) {
			return invalid("route "+ipString(r.DstIP), r.OutPort)
		}
	}
	for _, p := range d.Prefixes {
		if p.OutPort < 0 || p.OutPort >= ports {
			return invalid(fmt.Sprintf("prefix %s/%d", ipString(p.Addr), p.Len), p.OutPort)
		}
	}
	return nil
}

// diffDevice computes one device's ops: removals first, then grants and
// allocations, then routing (the OpKind order), with informational
// detour ops last.  Both inputs are in canonical sort order, so the
// output is deterministic.
func diffDevice(d DeviceSpec, st DeviceState, dets []Detour) ([]Op, *DeviceError) {
	var revokes, frees, rmRoutes, rmPfx, grants, allocs, addRoutes, updRoutes, addPfx, detours []Op

	// Tenants: the table has no ownership band to carve, so a spec
	// claims it only by listing at least one tenant — and then it owns
	// the whole table.
	if len(d.Tenants) > 0 {
		if !st.GuardEnabled {
			return nil, &DeviceError{Device: d.Device, Kind: ErrSpecInvalid,
				Detail: fmt.Sprintf("spec lists %d tenants but the device has no guard", len(d.Tenants))}
		}
		want := make(map[guard.TenantID]Tenant, len(d.Tenants))
		for _, t := range d.Tenants {
			want[t.ID] = t
		}
		have := make(map[guard.TenantID]TenantState, len(st.Tenants))
		for _, t := range st.Tenants {
			have[t.ID] = t
		}
		for _, t := range st.Tenants { // sorted
			w, ok := want[t.ID]
			if !ok {
				revokes = append(revokes, Op{Kind: OpRevokeTenant, Tenant: Tenant{ID: t.ID}})
				continue
			}
			acl, _ := w.acl() // validated by Normalize
			if acl != t.ACL || w.Words != t.Words || w.Weight != t.Weight || w.Burst != t.Burst {
				// A grant is immutable in the guard; any drift means
				// revoke + re-grant (which zeroes the partition, as the
				// hardware teardown path always does).
				revokes = append(revokes, Op{Kind: OpRevokeTenant, Tenant: Tenant{ID: t.ID}})
			}
		}
		for _, t := range d.Tenants { // sorted
			acl, _ := t.acl()
			if h, ok := have[t.ID]; ok &&
				acl == h.ACL && t.Words == h.Words && t.Weight == h.Weight && t.Burst == h.Burst {
				continue
			}
			grants = append(grants, Op{Kind: OpGrantTenant, Tenant: t, ACL: acl})
		}
	}

	// Services: the "fabric/" task prefix is the ownership mark, so
	// every prefixed allocation is managed whether or not the spec
	// lists services.
	wantSvc := make(map[string]Service, len(d.Services))
	for _, s := range d.Services {
		wantSvc[s.Name] = s
	}
	haveSvc := make(map[string]ServiceState, len(st.Services))
	for _, s := range st.Services {
		haveSvc[s.Name] = s
	}
	for _, s := range st.Services { // sorted
		w, ok := wantSvc[s.Name]
		if !ok || w.Words != s.Region.Words {
			frees = append(frees, Op{Kind: OpFreeService, Service: Service{Name: s.Name, Words: s.Region.Words}})
		}
	}
	for _, s := range d.Services { // sorted
		if h, ok := haveSvc[s.Name]; ok && s.Words == h.Region.Words {
			// Seed words are an apply-time initial value, not steady
			// state: once live, workloads own the region's contents.
			continue
		}
		allocs = append(allocs, Op{Kind: OpAllocService, Service: s})
	}

	// Routes: the controller's TCAM priority band is the ownership
	// mark; everything inside it is managed.
	wantRoute := make(map[routeKey]Route, len(d.Routes))
	for _, r := range d.Routes {
		wantRoute[routeKey{r.DstIP, r.Priority}] = r
	}
	haveRoute := make(map[routeKey]RouteState, len(st.Routes))
	seenRoute := make(map[routeKey]bool, len(st.Routes))
	for _, r := range st.Routes { // sorted, lowest EntryID first per key
		k := routeKey{r.DstIP, r.Priority}
		if seenRoute[k] {
			// A duplicate key in the band (e.g. a stale ChangeSet
			// applied twice): keep the oldest entry, remove the rest.
			rmRoutes = append(rmRoutes, Op{Kind: OpRemoveRoute, Route: r.Route, EntryID: r.EntryID})
			continue
		}
		seenRoute[k] = true
		haveRoute[k] = r
		w, ok := wantRoute[k]
		if !ok {
			rmRoutes = append(rmRoutes, Op{Kind: OpRemoveRoute, Route: r.Route, EntryID: r.EntryID})
		} else if w.OutPort != r.OutPort || w.Drop != r.Drop {
			if det, ok := matchDetour(dets, w, r); ok {
				// The drift is a reflex detour the arm still stands
				// behind: report it, don't fight it.
				detours = append(detours, Op{Kind: OpDetour, Route: w,
					EntryID: r.EntryID, BackupPort: det.BackupPort})
			} else {
				updRoutes = append(updRoutes, Op{Kind: OpUpdateRoute, Route: w, EntryID: r.EntryID})
			}
		}
	}
	for _, r := range d.Routes { // sorted
		if _, ok := haveRoute[routeKey{r.DstIP, r.Priority}]; !ok {
			addRoutes = append(addRoutes, Op{Kind: OpAddRoute, Route: r})
		}
	}

	// Prefixes: like tenants, claimed only by specs listing at least
	// one entry.
	if len(d.Prefixes) > 0 {
		wantPfx := make(map[Prefix]Prefix, len(d.Prefixes))
		for _, p := range d.Prefixes {
			wantPfx[Prefix{Addr: p.Addr, Len: p.Len}] = p
		}
		havePfx := make(map[Prefix]Prefix, len(st.Prefixes))
		for _, p := range st.Prefixes {
			havePfx[Prefix{Addr: p.Addr, Len: p.Len}] = p
		}
		for _, p := range st.Prefixes { // sorted
			if _, ok := wantPfx[Prefix{Addr: p.Addr, Len: p.Len}]; !ok {
				rmPfx = append(rmPfx, Op{Kind: OpRemovePrefix, Prefix: p})
			}
		}
		for _, p := range d.Prefixes { // sorted
			if h, ok := havePfx[Prefix{Addr: p.Addr, Len: p.Len}]; ok && h.OutPort == p.OutPort {
				continue
			}
			// l3.Insert is an upsert, so a changed next hop is a plain add.
			addPfx = append(addPfx, Op{Kind: OpAddPrefix, Prefix: p})
		}
	}

	var ops []Op
	for _, group := range [][]Op{revokes, frees, rmRoutes, rmPfx, grants, allocs, addRoutes, updRoutes, addPfx, detours} {
		ops = append(ops, group...)
	}
	return ops, nil
}

// matchDetour reports whether the drift between spec route w and live
// route r is exactly an active reflex detour: the live entry is the one
// the arm rewrote, still at the version the arm left it, with the live
// action on the backup port and the spec wanting the detour's primary.
// Anything less is ordinary drift the controller repairs.
func matchDetour(dets []Detour, w Route, r RouteState) (Detour, bool) {
	for _, det := range dets {
		if det.EntryID == r.EntryID && det.Version == r.Version &&
			det.DstIP == w.DstIP && det.Priority == w.Priority &&
			!w.Drop && !r.Drop &&
			w.OutPort == det.PrimaryPort && r.OutPort == det.BackupPort {
			return det, true
		}
	}
	return Detour{}, false
}

// DeviceReport is one device's apply outcome.
type DeviceReport struct {
	Device  string
	Applied int
	Err     *DeviceError
}

// ApplyReport is the per-device outcome of applying a ChangeSet.
type ApplyReport struct {
	Devices []DeviceReport
}

// OpsApplied counts the mutations that landed and verified.
func (r ApplyReport) OpsApplied() int {
	n := 0
	for _, d := range r.Devices {
		if d.Err == nil {
			n += d.Applied
		}
	}
	return n
}

// Errors collects the per-device failures.
func (r ApplyReport) Errors() []DeviceError {
	var errs []DeviceError
	for _, d := range r.Devices {
		if d.Err != nil {
			errs = append(errs, *d.Err)
		}
	}
	return errs
}

// OK reports whether every device applied cleanly.
func (r ApplyReport) OK() bool { return len(r.Errors()) == 0 }

// Apply executes a ChangeSet, one device at a time, each device
// all-or-nothing: snapshotted and epoch-checked before any write,
// applied, then read back and re-diffed against the spec the diff
// started from.  A failure rolls the device back to its pre-apply
// snapshot and surfaces as a typed DeviceError; other devices still
// apply.
func (c *Controller) Apply(cs ChangeSet) ApplyReport {
	var rep ApplyReport
	for _, dc := range cs.Devices {
		rep.Devices = append(rep.Devices, c.applyDevice(dc))
	}
	return rep
}

func (c *Controller) applyDevice(dc DeviceChange) DeviceReport {
	rep := DeviceReport{Device: dc.Device}

	// Pre-apply snapshot: config state plus the managed SRAM contents,
	// so rollback restores service regions byte-for-byte.  Its epoch is
	// the stamp: the writes below are valid only against the state the
	// diff read, and a bumped epoch means a crash-restart wiped that
	// state — don't touch the device; the next converge round re-diffs.
	snap, derr := c.ReadState(dc.Device)
	if derr != nil {
		rep.Err = derr
		return rep
	}
	if snap.Epoch != dc.BaseEpoch {
		rep.Err = &DeviceError{Device: dc.Device, Kind: ErrEpochRaced,
			Detail: fmt.Sprintf("base epoch %d, live %d", dc.BaseEpoch, snap.Epoch)}
		return rep
	}
	sw := c.devices[dc.Device]
	snapWords := make(map[string][]uint32, len(snap.Services))
	for _, s := range snap.Services {
		words := make([]uint32, s.Region.Words)
		base := mem.SRAMIndex(s.Region.Base)
		for i := range words {
			words[i] = sw.SRAM(base + i)
		}
		snapWords[s.Name] = words
	}

	fail := func(kind ErrKind, detail string) DeviceReport {
		rolled := c.rollback(dc.Device, snap, snapWords) == nil
		rep.Err = &DeviceError{Device: dc.Device, Kind: kind, Detail: detail, RolledBack: rolled}
		return rep
	}

	for i, op := range dc.Ops {
		if op.Kind == OpDetour {
			continue // informational: the reflex write already landed
		}
		if err := applyOp(sw, op); err != nil {
			return fail(ErrWriteFailed, fmt.Sprintf("op %d (%s): %v", i, op, err))
		}
		rep.Applied++
	}

	// The writes are in; make sure the device we wrote is still the
	// device we diffed.  A reboot mid-apply wiped some of the writes —
	// don't trust any of them.
	st, derr := c.ReadState(dc.Device)
	if derr != nil {
		rep.Err = derr
		return rep
	}
	if st.Epoch != dc.BaseEpoch {
		rep.Err = &DeviceError{Device: dc.Device, Kind: ErrEpochRaced,
			Detail: fmt.Sprintf("rebooted mid-apply: base epoch %d, live %d", dc.BaseEpoch, st.Epoch)}
		return rep
	}

	// Verify by the diff itself: the written device must be at spec,
	// whole — drift outside the ops written (a stale ChangeSet) fails
	// as surely as a write that did not land.
	ops, derr := diffDevice(dc.spec, st, c.detoursFor(dc.Device))
	if derr != nil {
		return fail(ErrVerifyFailed, derr.Detail)
	}
	if detail := shortOfSpec(ops); detail != "" {
		return fail(ErrVerifyFailed, detail)
	}
	// Seed words are the one thing the diff ignores (workloads own a
	// live region's contents), so the ones just written are read back
	// here.
	for _, op := range dc.Ops {
		if op.Kind != OpAllocService {
			continue
		}
		reg, _ := sw.Allocator().Lookup(taskPrefix + op.Service.Name) // live: the re-diff found it
		for i, want := range op.Service.Seed {
			if got := sw.SRAM(mem.SRAMIndex(reg.Base) + i); got != want {
				return fail(ErrVerifyFailed, fmt.Sprintf("service %s word %d: wrote %v, read back %v", op.Service.Name, i, want, got))
			}
		}
	}
	return rep
}

// applyOp lands one mutation on the hardware tables.
func applyOp(sw *asic.Switch, op Op) error {
	switch op.Kind {
	case OpRevokeTenant:
		return sw.RevokeTenant(op.Tenant.ID)
	case OpFreeService:
		return sw.Allocator().Free(taskPrefix + op.Service.Name)
	case OpRemoveRoute:
		return sw.TCAM().Remove(op.EntryID)
	case OpRemovePrefix:
		if !sw.L3().Remove(op.Prefix.Addr, op.Prefix.Len) {
			return fmt.Errorf("prefix %s/%d not present", ipString(op.Prefix.Addr), op.Prefix.Len)
		}
		return nil
	case OpGrantTenant:
		_, err := sw.GrantTenant(op.Tenant.ID, op.ACL, op.Tenant.Words, op.Tenant.Weight, op.Tenant.Burst)
		return err
	case OpAllocService:
		reg, err := sw.Allocator().Alloc(taskPrefix+op.Service.Name, op.Service.Words)
		if err != nil {
			return err
		}
		// Free does not zero, so clear whatever the region's previous
		// holder left before seeding.
		sw.ZeroRegion(reg)
		base := mem.SRAMIndex(reg.Base)
		for i, w := range op.Service.Seed {
			sw.SetSRAM(base+i, w)
		}
		return nil
	case OpAddRoute:
		v, m := tcam.DstIPRule(op.Route.DstIP)
		sw.TCAM().Insert(BandBase+op.Route.Priority, v, m, op.Route.action())
		return nil
	case OpUpdateRoute:
		return sw.TCAM().Update(op.EntryID, op.Route.action())
	case OpAddPrefix:
		return sw.L3().Insert(op.Prefix.Addr, op.Prefix.Len, l3.Route{OutPort: op.Prefix.OutPort})
	}
	return fmt.Errorf("unknown op kind %d", op.Kind)
}

// rollback restores device dev to its pre-apply snapshot: re-diff the
// snapshot-as-spec against whatever the half-applied state is now,
// apply the delta, then write the snapshotted service contents back.
func (c *Controller) rollback(dev string, snap DeviceState, snapWords map[string][]uint32) error {
	d, err := normalizeDevice(specFromState(snap))
	if err != nil {
		return err
	}
	st, derr := c.ReadState(dev)
	if derr != nil {
		return derr
	}
	// Rollback restores the exact pre-apply snapshot, detours and all:
	// the snapshot's RouteStates already carry whatever actions the
	// reflex had installed, so no detour source is consulted here.
	ops, derr2 := diffDevice(d, st, nil)
	if derr2 != nil {
		return derr2
	}
	sw := c.devices[dev]
	for _, op := range ops {
		if err := applyOp(sw, op); err != nil {
			return fmt.Errorf("rollback op %s: %w", op, err)
		}
	}
	for _, s := range snap.Services {
		reg, ok := sw.Allocator().Lookup(taskPrefix + s.Name)
		if !ok {
			return fmt.Errorf("rollback: service %s missing", s.Name)
		}
		base := mem.SRAMIndex(reg.Base)
		for i, w := range snapWords[s.Name] {
			sw.SetSRAM(base+i, w)
		}
	}
	return nil
}

// Verify re-reads every device the spec names and reports the ones
// whose live state still differs from spec, field-for-field, as typed
// errors, and the ones that break congruence: a service the spec names
// on two or more devices must sit at the same live base on each, so
// one compiled TPP addresses it network-wide.  First fit lands equal
// requests alike only on equally used switches; a device whose SRAM
// holds something the others' does not (a tenant partition, a foreign
// task) can seat the service elsewhere, and is ErrIncongruent.  nil
// means converged.
func (c *Controller) Verify(spec Spec) []DeviceError {
	ns, err := spec.Normalize()
	if err != nil {
		return []DeviceError{{Kind: ErrSpecInvalid, Detail: err.Error()}}
	}
	var seats *seating
	if sharesService(ns) {
		seats = &seating{first: make(map[string]seat)}
	}
	cs, errs := c.diff(ns, seats)
	for _, dc := range cs.Devices {
		// Informational detour ops are not drift: a device whose only
		// divergence from spec is a standing reflex detour verifies
		// clean (the operator ratifies or the reflex reverts).
		if detail := shortOfSpec(dc.Ops); detail != "" {
			errs = append(errs, DeviceError{Device: dc.Device, Kind: ErrVerifyFailed, Detail: detail})
		}
	}
	if seats != nil {
		errs = append(errs, seats.errs...)
	}
	return errs
}

// sharesService reports whether the spec names some service on two or
// more devices — the only case congruence constrains.  It allocates
// nothing, so a spec without shared services verifies as cheaply as
// before the rule existed.
func sharesService(ns Spec) bool {
	for i, d := range ns.Devices {
		for _, s := range d.Services {
			for _, o := range ns.Devices[i+1:] {
				if _, ok := findService(o.Services, s.Name); ok {
					return true
				}
			}
		}
	}
	return false
}

// findService finds a service by name in a name-sorted slice.
func findService(svcs []Service, name string) (Service, bool) {
	i := sort.Search(len(svcs), func(i int) bool { return svcs[i].Name >= name })
	if i < len(svcs) && svcs[i].Name == name {
		return svcs[i], true
	}
	return Service{}, false
}

// seat is where the first device checked holds a service.
type seat struct {
	device string
	base   mem.Addr
}

// seating collects live service bases across devices and the
// congruence violations among them.
type seating struct {
	first map[string]seat
	errs  []DeviceError
}

// check compares the bases of d's services, as read back in st, with
// the first device seen holding each.  A service not yet live at its
// spec'd size is drift, which Verify reports on its own; it seats
// nothing.
func (g *seating) check(d DeviceSpec, st DeviceState) {
	for _, live := range st.Services {
		want, ok := findService(d.Services, live.Name)
		if !ok || want.Words != live.Region.Words {
			continue
		}
		f, ok := g.first[live.Name]
		if !ok {
			g.first[live.Name] = seat{device: d.Device, base: live.Region.Base}
			continue
		}
		if f.base != live.Region.Base {
			g.errs = append(g.errs, DeviceError{Device: d.Device, Kind: ErrIncongruent,
				Detail: fmt.Sprintf("service %s at %#x, but at %#x on %s",
					live.Name, live.Region.Base, f.base, f.device)})
		}
	}
}
