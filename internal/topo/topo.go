// Package topo builds simulated networks out of asic switches, endhost
// hosts and netsim links.  It provides the standard shapes the
// experiments use: a line of switches (Figure 1), a dumbbell with one
// bottleneck (Figure 2), an incast star (§2.1) and a two-tier
// leaf-spine fabric (§2.3).
package topo

import (
	"fmt"

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

	// Telemetry adopted from the first switch Config that carries it
	// (or set directly before wiring): new channels get the tracer
	// with a sequential link id so span logs identify each direction.
	trace    *obs.Tracer
	nextLink uint32
}

// SetTrace attaches the packet-lifecycle tracer to the topology; every
// channel created afterwards records link serialization, loss and
// delivery events under a sequential link id.
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
// in creation order; cfg.Ports defaults to 16 so topology construction
// never runs out.
func (n *Network) AddSwitch(cfg asic.Config) *asic.Switch {
	n.nextID++
	if cfg.ID == 0 {
		cfg.ID = n.nextID
	}
	if cfg.Ports == 0 {
		cfg.Ports = 16
	}
	if cfg.Trace != nil && n.trace == nil {
		n.trace = cfg.Trace
	}
	sw := asic.New(n.Sim, cfg)
	n.Switches = append(n.Switches, sw)
	return sw
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

// Line builds H0 — S0 — S1 — ... — S(k-1) — H1 with hosts on the ends:
// the Figure 1 walk.  It returns the network, the two hosts, and the
// switches in path order.
func Line(sim *netsim.Sim, switches int, edge, backbone LinkSpec, cfg asic.Config) (*Network, *endhost.Host, *endhost.Host, []*asic.Switch) {
	n := NewNetwork(sim)
	sws := make([]*asic.Switch, switches)
	for i := range sws {
		c := cfg
		c.ID = 0
		sws[i] = n.AddSwitch(c)
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
func Star(sim *netsim.Sim, hosts int, edge LinkSpec, cfg asic.Config) (*Network, []*endhost.Host, *asic.Switch) {
	n := NewNetwork(sim)
	sw := n.AddSwitch(cfg)
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
func Dumbbell(sim *netsim.Sim, flows int, edge, bottleneck LinkSpec, cfg asic.Config) *DumbbellNet {
	d := &DumbbellNet{Network: NewNetwork(sim)}
	cfg.ID = 0
	d.A = d.AddSwitch(cfg)
	d.B = d.AddSwitch(cfg)
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

// LeafSpine builds a two-tier fabric with hostsPerLeaf hosts on each of
// leaves leaf switches, all connected to every one of spines spine
// switches: the §2.3 datacenter shape.
func LeafSpine(sim *netsim.Sim, leaves, spines, hostsPerLeaf int, edge, fabric LinkSpec, cfg asic.Config) (*Network, [][]*endhost.Host, []*asic.Switch, []*asic.Switch) {
	n := NewNetwork(sim)
	leafSW := make([]*asic.Switch, leaves)
	spineSW := make([]*asic.Switch, spines)
	for i := range spineSW {
		c := cfg
		c.ID = 0
		spineSW[i] = n.AddSwitch(c)
	}
	for i := range leafSW {
		c := cfg
		c.ID = 0
		leafSW[i] = n.AddSwitch(c)
		for _, sp := range spineSW {
			n.LinkSwitches(leafSW[i], sp, fabric)
		}
	}
	hosts := make([][]*endhost.Host, leaves)
	for i := range hosts {
		hosts[i] = make([]*endhost.Host, hostsPerLeaf)
		for j := range hosts[i] {
			hosts[i][j] = n.AddHost()
			n.LinkHost(hosts[i][j], leafSW[i], edge)
		}
	}
	return n, hosts, leafSW, spineSW
}
