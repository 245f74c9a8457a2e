// Package topo builds simulated networks out of asic switches, endhost
// hosts and netsim links.  It provides the standard shapes the
// experiments use: a line of switches (Figure 1), a dumbbell with one
// bottleneck (Figure 2), an incast star (§2.1) and a two-tier
// leaf-spine fabric (§2.3).  It is the only package that knows how a
// shape is wired: which port faces which neighbour, what a device or a
// link is called, and (fabric.go) what the deterministic destination
// routing of a leaf-spine is.
package topo

import (
	"fmt"
	"slices"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// LinkSpec describes one full-duplex link.
type LinkSpec struct {
	RateBps int64
	Delay   netsim.Time
}

// Mbps builds a LinkSpec for a rate in megabits/second.
func Mbps(rate float64, delay netsim.Time) LinkSpec {
	return LinkSpec{RateBps: int64(rate * 1e6), Delay: delay}
}

// Attachment records where a host plugs into the fabric.
type Attachment struct {
	Switch *asic.Switch
	Port   int
}

// Network is a constructed topology.
type Network struct {
	Sim      *netsim.Sim
	Switches []*asic.Switch
	Hosts    []*endhost.Host

	attach   map[*endhost.Host]Attachment
	nextPort map[*asic.Switch]int
	nextID   uint32
	nextHost uint64

	// The link tracer SetTrace attached, if any: new channels get it
	// with a sequential link id so span logs identify each direction.
	trace    *obs.Tracer
	nextLink uint32
}

// SetTrace attaches the packet-lifecycle tracer to the topology; every
// channel created afterwards records link serialization, loss and
// delivery events under a sequential link id.  Tracing the links is
// this call's say alone: a switch's own Config.Trace covers its
// pipeline stages, not the wires.
func (n *Network) SetTrace(tr *obs.Tracer) { n.trace = tr }

// traceChannel attaches the network tracer to a freshly built channel.
func (n *Network) traceChannel(ch *netsim.Channel) *netsim.Channel {
	if n.trace != nil {
		n.nextLink++
		ch.SetTrace(n.trace, n.nextLink)
	}
	return ch
}

// NewNetwork starts an empty topology on sim.
func NewNetwork(sim *netsim.Sim) *Network {
	return &Network{
		Sim:      sim,
		attach:   make(map[*endhost.Host]Attachment),
		nextPort: make(map[*asic.Switch]int),
	}
}

// AddSwitch creates a switch.  A zero cfg.ID is auto-assigned 1, 2, ...
// in creation order, skipping ids already taken; an explicit id that
// another switch of this network holds panics, like Wire on a bad port:
// two switches answering one [Switch:SwitchID] is a construction bug.
// cfg.Ports defaults to 16; a switch that needs more says so (the shape
// builders below size unset Ports to what the shape wires).
func (n *Network) AddSwitch(cfg asic.Config) *asic.Switch {
	n.nextID++
	if cfg.ID == 0 {
		for n.hasID(n.nextID) {
			n.nextID++
		}
		cfg.ID = n.nextID
	} else if n.hasID(cfg.ID) {
		panic(fmt.Sprintf("topo: duplicate switch id %d", cfg.ID))
	}
	if cfg.Ports == 0 {
		cfg.Ports = 16
	}
	sw := asic.New(n.Sim, cfg)
	n.Switches = append(n.Switches, sw)
	return sw
}

func (n *Network) hasID(id uint32) bool {
	return slices.ContainsFunc(n.Switches, func(sw *asic.Switch) bool { return sw.ID() == id })
}

// AddHost creates a host with deterministic MAC 02:...:<k> and IP
// 10.0.0.<k>.
func (n *Network) AddHost() *endhost.Host {
	n.nextHost++
	k := n.nextHost
	mac := core.MACFromUint64(0x020000000000 | k)
	ip := core.IPv4Addr(10, 0, byte(k>>8), byte(k))
	h := endhost.NewHost(n.Sim, mac, ip)
	n.Hosts = append(n.Hosts, h)
	return h
}

// claimPort reserves the next free port on sw.
func (n *Network) claimPort(sw *asic.Switch) int {
	p := n.nextPort[sw]
	if p >= sw.Ports() {
		panic(fmt.Sprintf("topo: switch %d out of ports", sw.ID()))
	}
	n.nextPort[sw] = p + 1
	return p
}

// LinkHost connects h to sw over spec and returns the switch port used.
func (n *Network) LinkHost(h *endhost.Host, sw *asic.Switch, spec LinkSpec) int {
	port := n.claimPort(sw)
	up := n.traceChannel(netsim.NewChannel(n.Sim, spec.RateBps, spec.Delay, sw, port))
	h.NIC.Attach(up)
	down := n.traceChannel(netsim.NewChannel(n.Sim, spec.RateBps, spec.Delay, h, 0))
	sw.Wire(port, down)
	n.attach[h] = Attachment{Switch: sw, Port: port}
	return port
}

// LinkSwitches connects a and b over spec and returns the two ports
// used (a's, then b's).
func (n *Network) LinkSwitches(a, b *asic.Switch, spec LinkSpec) (int, int) {
	ap := n.claimPort(a)
	bp := n.claimPort(b)
	a.Wire(ap, n.traceChannel(netsim.NewChannel(n.Sim, spec.RateBps, spec.Delay, b, bp)))
	b.Wire(bp, n.traceChannel(netsim.NewChannel(n.Sim, spec.RateBps, spec.Delay, a, ap)))
	return ap, bp
}

// AttachmentOf reports where host h is plugged in.
func (n *Network) AttachmentOf(h *endhost.Host) Attachment { return n.attach[h] }

// PrimeL2 broadcasts one frame from every host so every switch learns
// every station, then runs the simulator for settle time.  Experiments
// call it before measuring so flooding doesn't pollute results.
func (n *Network) PrimeL2(settle netsim.Time) {
	for _, h := range n.Hosts {
		h.Broadcast()
	}
	n.Sim.RunUntil(n.Sim.Now() + settle)
}

// SwitchConfig is the per-switch hook every shape builder takes: it
// returns the configuration of switch i of tier t, so a harness can
// trace, guard or throttle one device without wiring the shape itself.
// Single-tier shapes ask with Leaf: Line in path order, Star for its one
// switch, Dumbbell for A (0) and B (1).  A zero ID is auto-numbered (a
// non-zero one must be unique in the network, or AddSwitch panics) and
// unset Ports are sized to exactly what the shape wires; a nil hook is
// the zero Config everywhere.
type SwitchConfig func(t Tier, i int) asic.Config

// Uniform is the hook that gives every switch the same cfg; on a shape
// of more than one switch cfg.ID must therefore be zero.
func Uniform(cfg asic.Config) SwitchConfig {
	return func(Tier, int) asic.Config { return cfg }
}

// Tier says which layer of a shape a switch sits in.
type Tier uint8

const (
	Leaf Tier = iota
	Spine
)

// build creates switch i of tier t for a shape that wires ports of it.
func (n *Network) build(cfg SwitchConfig, t Tier, i, ports int) *asic.Switch {
	var c asic.Config
	if cfg != nil {
		c = cfg(t, i)
	}
	if c.Ports == 0 {
		c.Ports = ports
	}
	return n.AddSwitch(c)
}

// Line builds H0 — S0 — S1 — ... — S(k-1) — H1 with hosts on the ends:
// the Figure 1 walk.  It returns the network, the two hosts, and the
// switches in path order.  links, when non-nil, traces every channel.
func Line(sim *netsim.Sim, switches int, edge, backbone LinkSpec, cfg SwitchConfig, links *obs.Tracer) (*Network, *endhost.Host, *endhost.Host, []*asic.Switch) {
	n := NewNetwork(sim)
	n.SetTrace(links)
	sws := make([]*asic.Switch, switches)
	for i := range sws {
		sws[i] = n.build(cfg, Leaf, i, 2)
	}
	for i := 0; i+1 < switches; i++ {
		n.LinkSwitches(sws[i], sws[i+1], backbone)
	}
	src := n.AddHost()
	dst := n.AddHost()
	n.LinkHost(src, sws[0], edge)
	n.LinkHost(dst, sws[switches-1], edge)
	return n, src, dst, sws
}

// Star builds k hosts around one switch: the §2.1 incast shape.
func Star(sim *netsim.Sim, hosts int, edge LinkSpec, cfg SwitchConfig, links *obs.Tracer) (*Network, []*endhost.Host, *asic.Switch) {
	n := NewNetwork(sim)
	n.SetTrace(links)
	sw := n.build(cfg, Leaf, 0, hosts)
	hs := make([]*endhost.Host, hosts)
	for i := range hs {
		hs[i] = n.AddHost()
		n.LinkHost(hs[i], sw, edge)
	}
	return n, hs, sw
}

// DumbbellNet is the Figure 2 shape: Senders on switch A, Receivers on
// switch B, and one bottleneck link A—B on ports APort and BPort.
type DumbbellNet struct {
	*Network
	Senders, Receivers []*endhost.Host
	A, B               *asic.Switch
	APort, BPort       int
}

// Dumbbell builds k sender hosts on switch A, k receiver hosts on
// switch B, and one bottleneck link A—B.  Senders are Hosts[0:k],
// receivers Hosts[k:2k].
func Dumbbell(sim *netsim.Sim, flows int, edge, bottleneck LinkSpec, cfg SwitchConfig, links *obs.Tracer) *DumbbellNet {
	d := &DumbbellNet{Network: NewNetwork(sim)}
	d.SetTrace(links)
	d.A = d.build(cfg, Leaf, 0, flows+1)
	d.B = d.build(cfg, Leaf, 1, flows+1)
	d.APort, d.BPort = d.LinkSwitches(d.A, d.B, bottleneck)
	d.Senders = make([]*endhost.Host, flows)
	d.Receivers = make([]*endhost.Host, flows)
	for i := range d.Senders {
		d.Senders[i] = d.AddHost()
		d.LinkHost(d.Senders[i], d.A, edge)
	}
	for i := range d.Receivers {
		d.Receivers[i] = d.AddHost()
		d.LinkHost(d.Receivers[i], d.B, edge)
	}
	return d
}
