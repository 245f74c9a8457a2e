package fabric

import (
	"sort"
	"strings"

	"repro/internal/guard"
	"repro/internal/mem"
)

// TenantState is one live guard grant, read back field-for-field.
type TenantState struct {
	ID     guard.TenantID
	ACL    guard.ACL
	Words  int
	Weight float64
	Burst  int
}

// ServiceState is one live controller-owned SRAM allocation (the
// allocator task name with the "fabric/" prefix stripped).
type ServiceState struct {
	Name   string
	Region mem.Region
}

// RouteState is one live TCAM entry inside the controller's priority
// band, decoded back to spec terms plus the hardware identity the
// ChangeSet needs to update or remove it.
type RouteState struct {
	Route
	EntryID uint32
	Version uint32
}

// DeviceState is everything the controller manages on one device, read
// back live.  The diff compares a normalized DeviceSpec against it.
type DeviceState struct {
	Device       string
	Epoch        uint32
	GuardEnabled bool
	Tenants      []TenantState
	Services     []ServiceState
	Routes       []RouteState
	Prefixes     []Prefix
}

// ReadState reads device name's live state back through the dataplane's
// own machinery — the epoch word via Switch.ReadWord (the path a
// collect TPP's LOAD resolves through), the TCAM, L3 table, guard table
// and SRAM allocator — never from a cached copy.  A device inside a
// reboot's boot-delay window answers no read-back and surfaces as
// ErrDeviceDark.
func (c *Controller) ReadState(name string) (DeviceState, *DeviceError) {
	sw, ok := c.devices[name]
	if !ok {
		return DeviceState{}, &DeviceError{Device: name, Kind: ErrUnknownDevice}
	}
	epoch, ok := sw.ReadWord(mem.SwitchBase + mem.SwitchEpoch)
	if !ok {
		return DeviceState{}, &DeviceError{Device: name, Kind: ErrDeviceDark,
			Detail: "no read-back (mid-boot)"}
	}
	st := DeviceState{Device: name, Epoch: epoch}

	g := sw.Guard()
	st.GuardEnabled = g != nil
	// One walk over the allocator yields both owner classes: task
	// regions sorted by name, then tenant partitions sorted by id.
	for _, h := range sw.Allocator().Held() {
		if id := guard.TenantID(h.Owner.Tenant); id != guard.Operator {
			if g == nil {
				continue
			}
			if grant, ok := g.Lookup(id); ok {
				st.Tenants = append(st.Tenants, TenantState{
					ID:     id,
					ACL:    grant.ACL,
					Words:  h.Region.Words,
					Weight: grant.Weight,
					Burst:  grant.Burst,
				})
			}
		} else if name, ok := strings.CutPrefix(h.Owner.Task, taskPrefix); ok && name != "" {
			st.Services = append(st.Services, ServiceState{Name: name, Region: h.Region})
		}
	}

	// Entries() is sorted (priority desc, id asc); re-sort the band's
	// slice into spec order so state and normalized spec align.
	for _, e := range sw.TCAM().Entries() {
		if e.Priority < BandBase || e.Priority >= BandBase+BandSize {
			continue
		}
		st.Routes = append(st.Routes, RouteState{
			Route: Route{
				DstIP:    e.Value[0],
				Priority: e.Priority - BandBase,
				OutPort:  e.Action.OutPort,
				Drop:     e.Action.Drop,
			},
			EntryID: e.ID,
			Version: e.Version,
		})
	}
	sortRouteStates(st.Routes)

	for _, pr := range sw.L3().Routes() {
		st.Prefixes = append(st.Prefixes, Prefix{
			Addr:    pr.Prefix,
			Len:     pr.Len,
			OutPort: pr.Route.OutPort,
		})
	}
	sortPrefixes(st.Prefixes)

	return st, nil
}

// specFromState rebuilds the DeviceSpec that would reproduce st as-is;
// rollback diffs it against the post-failure live state to restore the
// pre-apply snapshot.  ACLs are carried explicitly so grants matching
// no preset round-trip exactly.
func specFromState(st DeviceState) DeviceSpec {
	d := DeviceSpec{Device: st.Device}
	for _, t := range st.Tenants {
		acl := t.ACL
		d.Tenants = append(d.Tenants, Tenant{
			ID:     t.ID,
			Policy: policyOf(t.ACL),
			ACL:    &acl,
			Words:  t.Words,
			Weight: t.Weight,
			Burst:  t.Burst,
		})
	}
	for _, s := range st.Services {
		d.Services = append(d.Services, Service{Name: s.Name, Words: s.Region.Words})
	}
	for _, r := range st.Routes {
		d.Routes = append(d.Routes, r.Route)
	}
	d.Prefixes = append(d.Prefixes, st.Prefixes...)
	return d
}

func sortRouteStates(rs []RouteState) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].DstIP != rs[j].DstIP {
			return rs[i].DstIP < rs[j].DstIP
		}
		if rs[i].Priority != rs[j].Priority {
			return rs[i].Priority < rs[j].Priority
		}
		return rs[i].EntryID < rs[j].EntryID
	})
}

func sortPrefixes(ps []Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Len != ps[j].Len {
			return ps[i].Len < ps[j].Len
		}
		return ps[i].Addr < ps[j].Addr
	})
}
