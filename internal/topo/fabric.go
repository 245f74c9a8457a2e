package topo

import (
	"fmt"
	"slices"

	"repro/internal/asic"
	"repro/internal/endhost"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tcam"
)

// LeafSpineNet is the §2.3 datacenter shape as a value: every leaf
// connected to every spine, hosts hanging off the leaves.  It answers
// what a harness needs to know about the wiring — which port faces which
// neighbour, what a device or link is called, which switch an id
// belongs to, and what the deterministic destination routing is.
type LeafSpineNet struct {
	*Network
	Leaves, Spines []*asic.Switch
	// LeafHosts[i] lists leaf i's hosts in attachment order.
	LeafHosts [][]*endhost.Host

	edge LinkSpec
}

// LeafSpine builds a two-tier fabric with hostsPerLeaf hosts on each of
// leaves leaf switches, all connected to every one of spines spine
// switches.  Spines are created (and numbered) first, then each leaf
// with its uplinks, then the hosts leaf by leaf.  links, when non-nil,
// traces every channel.
func LeafSpine(sim *netsim.Sim, leaves, spines, hostsPerLeaf int, edge, fabric LinkSpec, cfg SwitchConfig, links *obs.Tracer) *LeafSpineNet {
	f := &LeafSpineNet{Network: NewNetwork(sim), LeafHosts: make([][]*endhost.Host, leaves), edge: edge}
	f.SetTrace(links)
	for j := 0; j < spines; j++ {
		f.Spines = append(f.Spines, f.build(cfg, Spine, j, leaves))
	}
	for i := 0; i < leaves; i++ {
		f.Leaves = append(f.Leaves, f.build(cfg, Leaf, i, spines+hostsPerLeaf))
		for _, sp := range f.Spines {
			f.LinkSwitches(f.Leaves[i], sp, fabric)
		}
	}
	for i := range f.Leaves {
		for j := 0; j < hostsPerLeaf; j++ {
			f.AddLeafHost(i)
		}
	}
	return f
}

// AddLeafHost attaches one more host to leaf i over the edge spec, for
// fabrics whose leaves carry different host counts.  The leaf must have
// been configured with the Ports to take it.
func (f *LeafSpineNet) AddLeafHost(i int) *endhost.Host {
	h := f.AddHost()
	f.LinkHost(h, f.Leaves[i], f.edge)
	f.LeafHosts[i] = append(f.LeafHosts[i], h)
	return h
}

// Uplink is the port every leaf climbs to spine j on.
func (f *LeafSpineNet) Uplink(j int) int { return j }

// Downlink is the port every spine descends to leaf i on.
func (f *LeafSpineNet) Downlink(i int) int { return i }

// HostPort is the port leaf i reaches its host j on.
func (f *LeafSpineNet) HostPort(i, j int) int {
	return f.AttachmentOf(f.LeafHosts[i][j]).Port
}

// FabricLink returns the two channels of the link between leaf i and
// spine j, leaf→spine first: the order a gray fault's Dir indexes and a
// link fault span names the link by.
func (f *LeafSpineNet) FabricLink(i, j int) (up, down *netsim.Channel) {
	return f.Leaves[i].Port(f.Uplink(j)).Channel(), f.Spines[j].Port(f.Downlink(i)).Channel()
}

// LeafName, SpineName and FabricLinkName are the canonical names specs,
// fault plans and reports address a fabric's devices and links by.
func LeafName(i int) string          { return fmt.Sprintf("leaf%d", i) }
func SpineName(j int) string         { return fmt.Sprintf("spine%d", j) }
func FabricLinkName(i, j int) string { return LeafName(i) + "-" + SpineName(j) }

// Locate maps a switch id, as a hop trace reports it, back to the tier
// and index of the switch that holds it.
func (f *LeafSpineNet) Locate(id uint32) (Tier, int, bool) {
	holds := func(sw *asic.Switch) bool { return sw.ID() == id }
	if i := slices.IndexFunc(f.Leaves, holds); i >= 0 {
		return Leaf, i, true
	}
	j := slices.IndexFunc(f.Spines, holds)
	return Spine, j, j >= 0
}

// SwitchRegistry (a fabric.Controller) and FaultRegistry (a
// faults.Injector) are what Register names a fabric's parts on.
type SwitchRegistry interface {
	Register(name string, sw *asic.Switch)
}
type FaultRegistry interface {
	RegisterSwitch(name string, sw *asic.Switch)
	RegisterLink(name string, chs ...*netsim.Channel)
}

// Register names every switch on ctl and every switch and fabric link on
// inj under the canonical names.  Either may be nil.
func (f *LeafSpineNet) Register(ctl SwitchRegistry, inj FaultRegistry) {
	register := func(name string, sw *asic.Switch) {
		if ctl != nil {
			ctl.Register(name, sw)
		}
		if inj != nil {
			inj.RegisterSwitch(name, sw)
		}
	}
	for i, sw := range f.Leaves {
		register(LeafName(i), sw)
	}
	for j, sw := range f.Spines {
		register(SpineName(j), sw)
	}
	if inj == nil {
		return
	}
	for i := range f.Leaves {
		for j := range f.Spines {
			up, down := f.FabricLink(i, j)
			inj.RegisterLink(FabricLinkName(i, j), up, down)
		}
	}
}

// Route is one exact-match destination rule of a fabric's routing.
type Route struct {
	DstIP    uint32
	Priority int
	OutPort  int
}

// DeviceRoutes is one switch of the fabric, under its canonical name,
// with its share of the routing.
type DeviceRoutes struct {
	Name   string
	Switch *asic.Switch
	Routes []Route
}

// SpinePolicy chooses the spine that traffic from other leaves toward
// host j of leaf i climbs through; Routes takes the answer modulo the
// spine count.
type SpinePolicy func(leaf, host int) int

// HostSpine is the policy "host j of any leaf rides spine j": probing
// every host exercises every fabric link.
func HostSpine(_, host int) int { return host }

// ViaSpine is the policy "everything rides spine s".
func ViaSpine(s int) SpinePolicy { return func(int, int) int { return s } }

// Routes is the fabric's deterministic destination routing as data, so
// forwarding never depends on learned L2 state a reboot would wipe: one
// exact-match rule per host on every device, leaves first, each
// device's rules in host order.  A host's own leaf delivers at priority
// 100; at 10, every other leaf climbs to the spine via picks and every
// spine descends to the host's leaf.
func (f *LeafSpineNet) Routes(via SpinePolicy) []DeviceRoutes {
	devs := make([]DeviceRoutes, 0, len(f.Switches))
	for i, sw := range f.Leaves {
		devs = append(devs, DeviceRoutes{LeafName(i), sw, f.towardHosts(func(li, hj int) (int, int) {
			if li == i {
				return 100, f.HostPort(li, hj)
			}
			return 10, f.Uplink(via(li, hj) % len(f.Spines))
		})})
	}
	for j, sw := range f.Spines {
		devs = append(devs, DeviceRoutes{SpineName(j), sw, f.towardHosts(func(li, _ int) (int, int) {
			return 10, f.Downlink(li)
		})})
	}
	return devs
}

// towardHosts builds one device's rules: hop says at which priority and
// out of which port the device forwards toward host hj of leaf li.
func (f *LeafSpineNet) towardHosts(hop func(li, hj int) (priority, port int)) []Route {
	var rs []Route
	for li, hosts := range f.LeafHosts {
		for hj, h := range hosts {
			priority, port := hop(li, hj)
			rs = append(rs, Route{h.IP, priority, port})
		}
	}
	return rs
}

// InstallRoutes writes devs straight into the switches' TCAMs at
// priority band+Priority — what a fabric.Controller converging the same
// routes as a spec ends up with (band = fabric.BandBase), minus the
// controller.
func InstallRoutes(devs []DeviceRoutes, band int) {
	for _, d := range devs {
		for _, r := range d.Routes {
			v, m := tcam.DstIPRule(r.DstIP)
			d.Switch.TCAM().Insert(band+r.Priority, v, m, tcam.Action{OutPort: r.OutPort})
		}
	}
}
