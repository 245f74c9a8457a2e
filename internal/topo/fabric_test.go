package topo_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/asic"
	"repro/internal/endhost"
	"repro/internal/fabric"
	"repro/internal/fabric/scenario"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

// fabricRig is one leaf-spine under test: every switch traced and
// metered, Ports left for the builder to size, links untraced, no L2
// priming.
type fabricRig struct {
	*topo.LeafSpineNet
	reg *obs.Registry
	tr  *obs.Tracer
	ctl *fabric.Controller
	inj *faults.Injector
}

func newFabricRig(leaves, spines, hosts int) *fabricRig {
	sim := netsim.New(1)
	r := &fabricRig{reg: obs.NewRegistry(), tr: obs.NewTracer(1 << 20)}
	link := topo.Mbps(1000, netsim.Microsecond)
	r.LeafSpineNet = topo.LeafSpine(sim, leaves, spines, hosts, link, link,
		topo.Uniform(asic.Config{Metrics: r.reg, Trace: r.tr}), nil)
	r.ctl, r.inj = fabric.New(sim), faults.NewInjector(sim, nil)
	r.Register(r.ctl, r.inj)
	return r
}

// arrival sends one frame straight down ch, lets the fabric drain, and
// reports where the frame's last bit first landed: a switch's id and
// ingress port (its first parser span), or else the host that took it.
func (r *fabricRig) arrival(t *testing.T, ch *netsim.Channel) (node uint32, port int, host *endhost.Host) {
	t.Helper()
	src := r.Hosts[0]
	pkt := src.NewPacket(src.MAC, src.IP, 1, 2, 10)
	uid := pkt.Meta.UID
	before := make([]uint64, len(r.Hosts))
	for i, h := range r.Hosts {
		before[i] = h.Received
	}
	ch.Send(pkt)
	r.Sim.RunUntil(r.Sim.Now() + netsim.Millisecond)
	r.tr.Each(func(ev *obs.SpanEvent) {
		if node == 0 && ev.UID == uid && ev.Stage == obs.StageParser {
			node, port = ev.Node, int(ev.A)
		}
	})
	for i, h := range r.Hosts {
		if node == 0 && h.Received != before[i] {
			host = h
		}
	}
	if node == 0 && host == nil {
		t.Fatal("frame arrived nowhere")
	}
	return node, port, host
}

// dark reports whether ch drops what it carries: one frame sent on it
// moves its PacketsDownDrops.
func (r *fabricRig) dark(ch *netsim.Channel) bool {
	before := ch.PacketsDownDrops
	src := r.Hosts[0]
	ch.Send(src.NewPacket(src.MAC, src.IP, 1, 2, 10))
	r.Sim.RunUntil(r.Sim.Now() + netsim.Millisecond)
	return ch.PacketsDownDrops != before
}

// TestLeafSpineDescribesItsNetwork holds the fabric value to the network
// it built: accessors name real wires, names round-trip, and the
// destination routing — as a converged spec or as raw inserts, the same
// tables — connects every host pair with no flood, blackhole or loop.
func TestLeafSpineDescribesItsNetwork(t *testing.T) {
	policies := []struct {
		name string
		via  topo.SpinePolicy
	}{{"host-spine", topo.HostSpine}, {"via-spine0", topo.ViaSpine(0)}}

	for _, g := range []struct{ leaves, spines, hosts int }{
		{1, 1, 1}, {2, 1, 3}, {2, 2, 2}, {3, 2, 2}, {4, 3, 5}, {20, 2, 1},
	} {
		t.Run(fmt.Sprintf("%dx%dx%d", g.leaves, g.spines, g.hosts), func(t *testing.T) {
			for _, p := range policies {
				spec := newFabricRig(g.leaves, g.spines, g.hosts)
				res, done := spec.ctl.ConvergeWithin(scenario.RoutingSpec(spec.Routes(p.via)),
					fabric.ConvergeConfig{}, netsim.Second)
				if !done || !res.Converged {
					t.Fatalf("%s: routing spec did not converge: %+v", p.name, res)
				}
				raw := newFabricRig(g.leaves, g.spines, g.hosts)
				topo.InstallRoutes(raw.Routes(p.via), fabric.BandBase)

				rules := 0
				for k := range spec.Switches {
					a, b := spec.Switches[k].TCAM().Entries(), raw.Switches[k].TCAM().Entries()
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("%s: switch %d: converged table %+v != raw table %+v", p.name, k+1, a, b)
					}
					rules += len(a)
				}
				if want := (g.leaves + g.spines) * g.leaves * g.hosts; rules != want {
					t.Fatalf("%s: %d rules, want (leaves+spines)*hosts = %d", p.name, rules, want)
				}
				checkWiring(t, raw)
				checkReachability(t, p.name, spec)
			}
		})
	}
}

// checkWiring probes every accessor against the wire it names.  The
// probe frames are addressed to a real host, so the routing forwards
// them on without flooding.
func checkWiring(t *testing.T, r *fabricRig) {
	t.Helper()
	registered := switchNames{}
	r.Register(registered, nil)
	names := map[string]bool{}
	for i, leaf := range r.Leaves {
		names[topo.LeafName(i)] = true
		if registered[topo.LeafName(i)] != leaf {
			t.Fatalf("%s is not leaf %d", topo.LeafName(i), i)
		}
		if tier, idx, ok := r.Locate(leaf.ID()); !ok || tier != topo.Leaf || idx != i {
			t.Fatalf("Locate(leaf %d) = %v %d %v", i, tier, idx, ok)
		}
		for j, spine := range r.Spines {
			up, down := r.FabricLink(i, j)
			if up != leaf.Port(r.Uplink(j)).Channel() || down != spine.Port(r.Downlink(i)).Channel() {
				t.Fatalf("FabricLink(%d,%d) is not (uplink, downlink)", i, j)
			}
			if node, port, _ := r.arrival(t, up); node != spine.ID() || port != r.Downlink(i) {
				t.Fatalf("leaf %d uplink %d lands on switch %d port %d, want spine %d (id %d) port %d",
					i, j, node, port, j, spine.ID(), r.Downlink(i))
			}
			if node, port, _ := r.arrival(t, down); node != leaf.ID() || port != r.Uplink(j) {
				t.Fatalf("spine %d downlink %d lands on switch %d port %d, want leaf %d (id %d) port %d",
					j, i, node, port, i, leaf.ID(), r.Uplink(j))
			}
			// The link's name reaches the injector, leaf→spine first.
			names[topo.FabricLinkName(i, j)] = true
			gray := faults.Event{At: r.Sim.Now(), Kind: faults.LinkGrayDown, Target: topo.FabricLinkName(i, j), Dir: 0}
			if err := r.inj.Schedule(faults.Plan{Events: []faults.Event{gray}}); err != nil {
				t.Fatal(err)
			}
			r.Sim.RunUntil(r.Sim.Now() + 1)
			if upDark, downDark := r.dark(up), r.dark(down); !upDark || downDark {
				t.Fatalf("gray Dir 0 on %s: up dark=%v down dark=%v, want the leaf→spine channel dark", gray.Target, upDark, downDark)
			}
			up.SetUp(true)
		}
		for h, host := range r.LeafHosts[i] {
			if _, _, got := r.arrival(t, leaf.Port(r.HostPort(i, h)).Channel()); got != host {
				t.Fatalf("leaf %d host port %d does not reach host %d", i, r.HostPort(i, h), h)
			}
		}
	}
	for j, spine := range r.Spines {
		names[topo.SpineName(j)] = true
		if registered[topo.SpineName(j)] != spine {
			t.Fatalf("%s is not spine %d", topo.SpineName(j), j)
		}
		if tier, idx, ok := r.Locate(spine.ID()); !ok || tier != topo.Spine || idx != j {
			t.Fatalf("Locate(spine %d) = %v %d %v", j, tier, idx, ok)
		}
	}
	if want := len(r.Switches) + len(r.Leaves)*len(r.Spines); len(names) != want || len(registered) != len(r.Switches) {
		t.Fatalf("%d distinct names (%d devices registered), want %d (%d)",
			len(names), len(registered), want, len(r.Switches))
	}
}

// switchNames records what Register names each switch.
type switchNames map[string]*asic.Switch

func (s switchNames) Register(name string, sw *asic.Switch) { s[name] = sw }

// checkReachability sends one packet between every ordered host pair of
// a fabric that was never L2-primed.
func checkReachability(t *testing.T, policy string, r *fabricRig) {
	t.Helper()
	for _, src := range r.Hosts {
		for _, dst := range r.Hosts {
			if src != dst {
				src.Send(src.NewPacket(dst.MAC, dst.IP, 1, 2, 10))
			}
		}
	}
	r.Sim.RunUntil(r.Sim.Now() + netsim.Second)
	for k, h := range r.Hosts {
		if want := uint64(len(r.Hosts) - 1); h.Received != want {
			t.Fatalf("%s: host %d received %d packets, want %d", policy, k, h.Received, want)
		}
	}
	floods := 0
	r.tr.Each(func(ev *obs.SpanEvent) {
		if ev.Stage == obs.StageLookupL2 {
			floods++
		}
	})
	var lost int64
	snap := r.reg.Snapshot(int64(r.Sim.Now()))
	for _, sw := range r.Switches {
		for _, stat := range []string{"blackholes", "ttl_drops"} {
			m, ok := snap.Get(fmt.Sprintf("switch/%d/%s", sw.ID(), stat))
			if !ok {
				t.Fatalf("%s: switch %d exports no %s row", policy, sw.ID(), stat)
			}
			lost += m.Value
		}
	}
	if floods != 0 || lost != 0 || r.tr.Dropped() != 0 {
		t.Fatalf("%s: %d L2 lookups, %d blackholed or TTL-expired, %d spans dropped; want none",
			policy, floods, lost, r.tr.Dropped())
	}
}
