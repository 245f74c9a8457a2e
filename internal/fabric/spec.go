package fabric

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/guard"
	"repro/internal/mem"
	"repro/internal/tcam"
)

// The controller-owned TCAM priority band.  Spec route priorities are
// band-relative: a Route with Priority p is installed at BandBase+p, so
// fault-injected blackholes (priority 1<<20) always outrank controller
// routes and legacy test-installed routes (double-digit priorities)
// always rank below.  Read-back filters on the band, which is what lets
// the controller own its routes without any local bookkeeping.
const (
	BandBase = 1 << 16
	BandSize = 1 << 16
)

// taskPrefix marks allocator tasks the controller owns.  Services are
// allocated under it so fabric never frees a region another owner
// carved (the reflex arm's evidence region, a test's own task).
const taskPrefix = "fabric/"

// Policy names a tenant ACL preset.
type Policy string

// The ACL presets a spec can name.  PolicyCustom marks a tenant whose
// ACL came from read-back and matches no preset; specs cannot request
// it directly without an explicit ACL.
const (
	PolicyDefault Policy = "default"
	PolicyControl Policy = "control"
	PolicyCustom  Policy = "custom"
)

// ACL resolves the preset.
func (p Policy) resolve() (guard.ACL, error) {
	switch p {
	case PolicyDefault, "":
		return guard.DefaultACL(), nil
	case PolicyControl:
		return guard.ControlACL(), nil
	}
	return guard.ACL{}, fmt.Errorf("fabric: unknown tenant policy %q", p)
}

// policyOf names the preset an ACL corresponds to, for serialization of
// state that came from read-back.
func policyOf(a guard.ACL) Policy {
	switch a {
	case guard.DefaultACL():
		return PolicyDefault
	case guard.ControlACL():
		return PolicyControl
	}
	return PolicyCustom
}

// Tenant declares one guard grant: the tenant's ACL policy, its SRAM
// partition size and its admission share.
type Tenant struct {
	ID     guard.TenantID
	Policy Policy
	// ACL overrides Policy with an explicit table; nil resolves the
	// named preset.  Rollback uses it to restore grants whose ACL
	// matches no preset.
	ACL    *guard.ACL
	Words  int
	Weight float64
	Burst  int
}

func (t Tenant) acl() (guard.ACL, error) {
	if t.ACL != nil {
		return *t.ACL, nil
	}
	return t.Policy.resolve()
}

// Service declares one named SRAM allocation (an allocator task under
// the controller's name prefix) with optional seed words written into
// the fresh region.  Seed words are verified at apply time only: once a
// service is live, workloads own the region's contents.
type Service struct {
	Name  string
	Words int
	Seed  []uint32
}

// Route declares one exact-destination TCAM rule inside the
// controller's priority band.  Priority is band-relative (0 ≤ p <
// BandSize); higher wins, as in the TCAM itself.
type Route struct {
	DstIP    uint32
	Priority int
	OutPort  int
	Drop     bool
}

// Prefix declares one L3 LPM entry.
type Prefix struct {
	Addr    uint32
	Len     int
	OutPort int
}

// DeviceSpec is the desired state of one registered device.  Empty
// Tenants (or Prefixes) leaves the device's tenant table (or L3 table)
// unmanaged: those tables have no priority band to carve ownership
// with, so a spec claims them only by listing at least one entry.
type DeviceSpec struct {
	Device   string
	Tenants  []Tenant
	Services []Service
	Routes   []Route
	Prefixes []Prefix
}

// Spec is the desired state of the fabric: one DeviceSpec per managed
// device.  Devices the controller knows but the spec omits are left
// untouched.
type Spec struct {
	Devices []DeviceSpec
}

// Normalize validates the spec and returns a canonical deep copy:
// devices sorted by name, tenants by id, services by name, routes by
// (destination, priority), prefixes by (length, address), and zero
// tenant weight/burst resolved to the guard defaults so a diff against
// read-back state (which reports resolved values) is exact.  Diff and
// Verify normalize internally; callers only need Normalize to
// canonicalize a spec they serialize themselves.
func (s Spec) Normalize() (Spec, error) {
	out := Spec{Devices: make([]DeviceSpec, len(s.Devices))}
	seen := make(map[string]bool, len(s.Devices))
	for i, d := range s.Devices {
		if d.Device == "" {
			return Spec{}, fmt.Errorf("fabric: device %d has no name", i)
		}
		if seen[d.Device] {
			return Spec{}, fmt.Errorf("fabric: duplicate device %q", d.Device)
		}
		seen[d.Device] = true
		nd, err := normalizeDevice(d)
		if err != nil {
			return Spec{}, err
		}
		out.Devices[i] = nd
	}
	sort.Slice(out.Devices, func(i, j int) bool {
		return out.Devices[i].Device < out.Devices[j].Device
	})
	return out, nil
}

func normalizeDevice(d DeviceSpec) (DeviceSpec, error) {
	nd := DeviceSpec{
		Device:   d.Device,
		Tenants:  append([]Tenant(nil), d.Tenants...),
		Services: make([]Service, len(d.Services)),
		Routes:   append([]Route(nil), d.Routes...),
		Prefixes: append([]Prefix(nil), d.Prefixes...),
	}

	tenantIDs := make(map[guard.TenantID]bool, len(nd.Tenants))
	for i := range nd.Tenants {
		t := &nd.Tenants[i]
		if t.ID == guard.Operator {
			return DeviceSpec{}, fmt.Errorf("fabric: %s: the operator tenant is built in, not declared", d.Device)
		}
		if tenantIDs[t.ID] {
			return DeviceSpec{}, fmt.Errorf("fabric: %s: duplicate tenant %d", d.Device, t.ID)
		}
		tenantIDs[t.ID] = true
		if _, err := t.acl(); err != nil {
			return DeviceSpec{}, fmt.Errorf("%v (device %s, tenant %d)", err, d.Device, t.ID)
		}
		if t.Words <= 0 {
			return DeviceSpec{}, fmt.Errorf("fabric: %s: tenant %d wants %d words", d.Device, t.ID, t.Words)
		}
		// A non-finite weight poisons the guard's weight sum, and a NaN
		// never compares equal to its own read-back.
		if math.IsNaN(t.Weight) || math.IsInf(t.Weight, 0) {
			return DeviceSpec{}, fmt.Errorf("fabric: %s: tenant %d weight %g", d.Device, t.ID, t.Weight)
		}
		// Resolve the guard's registration defaults so spec and
		// read-back compare field-for-field.
		if t.Weight <= 0 {
			t.Weight = 1
		}
		if t.Burst <= 0 {
			t.Burst = guard.DefaultBurst
		}
	}
	sort.Slice(nd.Tenants, func(i, j int) bool { return nd.Tenants[i].ID < nd.Tenants[j].ID })

	svcNames := make(map[string]bool, len(d.Services))
	for i, svc := range d.Services {
		if svc.Name == "" {
			return DeviceSpec{}, fmt.Errorf("fabric: %s: service %d has no name", d.Device, i)
		}
		if svcNames[svc.Name] {
			return DeviceSpec{}, fmt.Errorf("fabric: %s: duplicate service %q", d.Device, svc.Name)
		}
		svcNames[svc.Name] = true
		if svc.Words <= 0 || svc.Words > mem.SRAMWords {
			return DeviceSpec{}, fmt.Errorf("fabric: %s: service %q wants %d words", d.Device, svc.Name, svc.Words)
		}
		if len(svc.Seed) > svc.Words {
			return DeviceSpec{}, fmt.Errorf("fabric: %s: service %q seeds %d words into %d", d.Device, svc.Name, len(svc.Seed), svc.Words)
		}
		nd.Services[i] = Service{Name: svc.Name, Words: svc.Words,
			Seed: append([]uint32(nil), svc.Seed...)}
	}
	sort.Slice(nd.Services, func(i, j int) bool { return nd.Services[i].Name < nd.Services[j].Name })

	routeKeys := make(map[routeKey]bool, len(nd.Routes))
	for _, r := range nd.Routes {
		if r.Priority < 0 || r.Priority >= BandSize {
			return DeviceSpec{}, fmt.Errorf("fabric: %s: route %s priority %d outside the band [0,%d)",
				d.Device, ipString(r.DstIP), r.Priority, BandSize)
		}
		k := routeKey{r.DstIP, r.Priority}
		if routeKeys[k] {
			return DeviceSpec{}, fmt.Errorf("fabric: %s: duplicate route %s prio %d", d.Device, ipString(r.DstIP), r.Priority)
		}
		routeKeys[k] = true
	}
	sort.Slice(nd.Routes, func(i, j int) bool {
		if nd.Routes[i].DstIP != nd.Routes[j].DstIP {
			return nd.Routes[i].DstIP < nd.Routes[j].DstIP
		}
		return nd.Routes[i].Priority < nd.Routes[j].Priority
	})

	pfxKeys := make(map[Prefix]bool, len(nd.Prefixes))
	for i := range nd.Prefixes {
		p := &nd.Prefixes[i]
		if p.Len < 0 || p.Len > 32 {
			return DeviceSpec{}, fmt.Errorf("fabric: %s: prefix length %d out of range", d.Device, p.Len)
		}
		p.Addr = maskPrefix(p.Addr, p.Len)
		k := Prefix{Addr: p.Addr, Len: p.Len}
		if pfxKeys[k] {
			return DeviceSpec{}, fmt.Errorf("fabric: %s: duplicate prefix %s/%d", d.Device, ipString(p.Addr), p.Len)
		}
		pfxKeys[k] = true
	}
	sort.Slice(nd.Prefixes, func(i, j int) bool {
		if nd.Prefixes[i].Len != nd.Prefixes[j].Len {
			return nd.Prefixes[i].Len < nd.Prefixes[j].Len
		}
		return nd.Prefixes[i].Addr < nd.Prefixes[j].Addr
	})
	return nd, nil
}

// routeKey identifies a controller route: one exact destination at one
// band-relative priority.
type routeKey struct {
	DstIP    uint32
	Priority int
}

// maskPrefix zeroes the bits below the prefix length, canonicalizing
// what the trie would ignore anyway.
func maskPrefix(addr uint32, plen int) uint32 {
	if plen <= 0 {
		return 0
	}
	return addr &^ (^uint32(0) >> plen)
}

// ipString renders a dotted quad.
func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// action converts a spec route to the TCAM action it installs.
func (r Route) action() tcam.Action {
	if r.Drop {
		return tcam.Action{Drop: true}
	}
	return tcam.Action{OutPort: r.OutPort}
}
