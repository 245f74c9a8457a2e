// Package faults is the deterministic fault-injection subsystem: a
// declarative, timed fault plan applied to a simulated network.  The
// paper stresses that "TPPs are therefore subject to congestion" and
// motivates ndb with failure localization; this package supplies the
// failure axis — link down/up flaps and gray (one-way) failures,
// Gilbert–Elliott (bursty) frame loss, TCAM blackhole rules, switch
// crash-restarts, and hostile-tenant TPP floods — so every end-host
// mechanism (probe retry, RCP* degradation, blackhole localization,
// tenant isolation) can be exercised against a misbehaving network
// and replayed exactly by seed.
//
// Targets are registered by name on an Injector; a Plan is a list of
// timed Events against those names.  Every applied event is visible in
// the internal/obs span stream (StageFaultInject / StageFaultRecover),
// so experiment traces interleave faults with packet lifecycles.
//
// Composition order is guaranteed: Schedule arms events on the
// simulator in plan-list order, and the simulator breaks same-time
// ties first-in-first-out, so events sharing a tick apply in the order
// their plan lists them — and across Schedule calls, in call order.
// Two plans that target the same switch in the same tick therefore
// compose deterministically (and replay identically by seed).
package faults

import (
	"fmt"
	"math/rand"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tcam"
)

// Kind enumerates the injectable faults.
type Kind uint8

// The fault vocabulary.  LinkUp, ClearLoss, ClearBlackhole and
// LinkGrayUp are the recovery counterparts; everything else injects.
// A kind's number is what fault spans carry in A, so deleted kinds
// leave blank identifiers behind and the rest keep their numbers.
const (
	// LinkDown severs every registered channel of the target link:
	// frames in flight and frames sent while down are dropped.
	LinkDown Kind = iota
	// LinkUp restores the target link.
	LinkUp
	_
	// LinkBurstyLoss installs the Gilbert–Elliott two-state bursty
	// loss model (PGoodBad, PBadGood, LossGood, LossBad) on the
	// target link.  LossGood == LossBad == 1 is a blackout.
	LinkBurstyLoss
	// ClearLoss removes any loss model from the target link.
	ClearLoss
	// Blackhole installs a maximum-priority TCAM drop rule for DstIP
	// on the target switch: the silent packet eater ndb hunts.
	Blackhole
	// ClearBlackhole removes the drop rule Blackhole installed for
	// DstIP on the target switch.
	ClearBlackhole
	_
	_
	// SwitchReboot crash-restarts the target switch: queued and
	// in-pipeline packets drop, scratch SRAM / allocator / learned L2
	// entries / task scratch are wiped, the boot generation counter at
	// [Switch:Epoch] increments, and after BootDelay the switch
	// resumes forwarding with TCAM/L3 reloaded from config.  Recovery
	// is autonomous (no paired clear event).
	SwitchReboot
	// RogueTenant turns the target host (RegisterHost) into a hostile
	// tenant: a seeded generator floods forged write-TPPs — STOREs
	// aimed at random absolute SRAM words and other tenants' port
	// scratch registers — at PPS packets per second toward
	// DstMAC/DstIP.  The host's NIC still seals the tenant id, so the
	// forgeries land as whoever the NIC says they are; guarded
	// switches deny the writes and throttle the flood per-tenant.
	RogueTenant
	_
	// LinkGrayDown is the unidirectional (gray) failure: only channel
	// Dir of the registered link goes dark while the reverse direction
	// keeps delivering.  Gray failures are the nastier real-world kind
	// — a dead laser with a live receive path — and the reason
	// liveness detection must prove the *forward* direction works
	// rather than inferring health from arriving traffic.
	LinkGrayDown
	// LinkGrayUp restores channel Dir of the target link.
	LinkGrayUp
)

// DefaultBootDelay is how long a rebooted switch stays dark when the
// event does not specify a BootDelay.
const DefaultBootDelay = netsim.Millisecond

var kindNames = [...]string{
	LinkDown:       "link-down",
	LinkUp:         "link-up",
	LinkBurstyLoss: "link-bursty-loss",
	ClearLoss:      "clear-loss",
	Blackhole:      "blackhole",
	ClearBlackhole: "clear-blackhole",
	SwitchReboot:   "switch-reboot",
	RogueTenant:    "rogue-tenant",
	LinkGrayDown:   "link-gray-down",
	LinkGrayUp:     "link-gray-up",
}

// String names the kind; a number no kind holds is "unknown".
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// recovers reports whether the kind clears a fault rather than
// injecting one (selects the span stage).
func (k Kind) recovers() bool {
	switch k {
	case LinkUp, ClearLoss, ClearBlackhole, LinkGrayUp:
		return true
	}
	return false
}

// Event is one timed fault against a registered target.
type Event struct {
	// At is the absolute simulation time the event applies.
	At netsim.Time
	// Kind selects the fault.
	Kind Kind
	// Target names a link (RegisterLink) for link kinds, or a switch
	// (RegisterSwitch) for Blackhole and SwitchReboot, or a host
	// (RegisterHost) for RogueTenant.
	Target string

	// PGoodBad, PBadGood, LossGood and LossBad parameterize
	// LinkBurstyLoss (see netsim.GilbertElliott).
	PGoodBad, PBadGood, LossGood, LossBad float64
	// DstIP is the destination the Blackhole rule swallows, and the
	// destination RogueTenant forgeries are addressed to.
	DstIP uint32
	// BootDelay is how long a SwitchReboot keeps the switch dark
	// before it resumes forwarding; zero selects DefaultBootDelay.
	BootDelay netsim.Time

	// PPS is the RogueTenant flood rate in packets per second.
	PPS float64
	// DstMAC is the destination RogueTenant forgeries are framed to.
	DstMAC core.MAC

	// Dir selects which registered channel of the link a gray failure
	// darkens: index into the RegisterLink argument order, so for
	// RegisterLink(name, aToB, bToA), Dir 0 kills the a→b direction.
	Dir int
}

// Plan is a declarative fault schedule.  The same plan with the same
// seed replays the identical fault pattern: loss-model randomness is
// seeded from Seed and the event's index, never from wall clock or the
// simulation's shared rng.
type Plan struct {
	Seed   int64
	Events []Event
}

// Flap is the common down-then-up pair: target goes down at `at` and
// recovers after `downFor`.
func Flap(target string, at, downFor netsim.Time) []Event {
	return []Event{
		{At: at, Kind: LinkDown, Target: target},
		{At: at + downFor, Kind: LinkUp, Target: target},
	}
}

// blackholePriority outranks every route a controller installs, so an
// injected blackhole always wins the TCAM match.
const blackholePriority = 1 << 20

// Injector binds target names to simulator objects and schedules
// plans.  One injector serves one simulation.
type Injector struct {
	sim    *netsim.Sim
	tracer *obs.Tracer

	links    map[string][]*netsim.Channel
	switches map[string]*asic.Switch
	hosts    map[string]*endhost.Host

	// ruleIDs remembers the TCAM entry a Blackhole event installed,
	// keyed by target+destination, so ClearBlackhole can remove it.
	ruleIDs map[string]uint32

	// RogueSent counts forged TPPs the rogue generators handed to
	// their NICs (whether or not the NIC accepted them).
	RogueSent uint64
}

// NewInjector builds an injector.  The tracer may be nil; when set,
// every applied event is recorded as a fault span.
func NewInjector(sim *netsim.Sim, tracer *obs.Tracer) *Injector {
	return &Injector{
		sim: sim, tracer: tracer,
		links:    make(map[string][]*netsim.Channel),
		switches: make(map[string]*asic.Switch),
		hosts:    make(map[string]*endhost.Host),
		ruleIDs:  make(map[string]uint32),
	}
}

// RegisterLink names a link.  Pass both directions' channels so
// LinkDown severs the link, not just one direction; passing a single
// channel models a unidirectional fault.
func (in *Injector) RegisterLink(name string, chs ...*netsim.Channel) {
	if len(chs) == 0 {
		panic("faults: RegisterLink with no channels")
	}
	in.links[name] = append(in.links[name], chs...)
}

// RegisterSwitch names a switch for Blackhole and SwitchReboot events.
func (in *Injector) RegisterSwitch(name string, sw *asic.Switch) {
	in.switches[name] = sw
}

// RegisterHost names a host for RogueTenant events.  Which tenant the
// rogue's forgeries execute as is decided by the host's NIC (the
// trusted edge), not by the fault plan.
func (in *Injector) RegisterHost(name string, h *endhost.Host) {
	in.hosts[name] = h
}

// Schedule validates the plan and arms every event on the simulator.
// Validation is up-front: an unknown target or an out-of-range
// probability fails here, not mid-run.
func (in *Injector) Schedule(p Plan) error {
	for i, ev := range p.Events {
		if err := in.validate(ev); err != nil {
			return fmt.Errorf("faults: event %d (%s @ %v): %w", i, ev.Kind, ev.At, err)
		}
	}
	for i, ev := range p.Events {
		ev := ev
		// Derive each loss model's seed from the plan seed and the
		// event's position: replayable, and independent streams per
		// event.
		seed := p.Seed*1_000_003 + int64(i)
		in.sim.At(ev.At, func() { in.apply(ev, seed) })
	}
	return nil
}

func (in *Injector) validate(ev Event) error {
	switch ev.Kind {
	case LinkDown, LinkUp, LinkBurstyLoss, ClearLoss:
		if _, ok := in.links[ev.Target]; !ok {
			return fmt.Errorf("unknown link %q", ev.Target)
		}
	case LinkGrayDown, LinkGrayUp:
		chs, ok := in.links[ev.Target]
		if !ok {
			return fmt.Errorf("unknown link %q", ev.Target)
		}
		if ev.Dir < 0 || ev.Dir >= len(chs) {
			return fmt.Errorf("direction %d out of range: link %q has %d channels",
				ev.Dir, ev.Target, len(chs))
		}
	case Blackhole, ClearBlackhole, SwitchReboot:
		if _, ok := in.switches[ev.Target]; !ok {
			return fmt.Errorf("unknown switch %q", ev.Target)
		}
		if ev.BootDelay < 0 {
			return fmt.Errorf("negative boot delay %v", ev.BootDelay)
		}
	case RogueTenant:
		if _, ok := in.hosts[ev.Target]; !ok {
			return fmt.Errorf("unknown host %q", ev.Target)
		}
		if ev.PPS <= 0 {
			return fmt.Errorf("rogue PPS = %v, want > 0", ev.PPS)
		}
	default:
		return fmt.Errorf("unknown fault kind %d", ev.Kind)
	}
	if ev.Kind != LinkBurstyLoss {
		return nil
	}
	// A slice, not a map: which out-of-range probability gets named in
	// the error must not depend on map iteration order.
	for _, pr := range []struct {
		name string
		p    float64
	}{
		{"PGoodBad", ev.PGoodBad}, {"PBadGood", ev.PBadGood},
		{"LossGood", ev.LossGood}, {"LossBad", ev.LossBad},
	} {
		if pr.p < 0 || pr.p > 1 {
			return fmt.Errorf("%s = %v out of [0,1]", pr.name, pr.p)
		}
	}
	return nil
}

// apply executes one event now.
func (in *Injector) apply(ev Event, seed int64) {
	switch ev.Kind {
	case LinkDown:
		for _, ch := range in.links[ev.Target] {
			ch.SetUp(false)
		}
	case LinkUp:
		for _, ch := range in.links[ev.Target] {
			ch.SetUp(true)
		}
	case LinkGrayDown:
		in.links[ev.Target][ev.Dir].SetUp(false)
	case LinkGrayUp:
		in.links[ev.Target][ev.Dir].SetUp(true)
	case LinkBurstyLoss:
		for j, ch := range in.links[ev.Target] {
			ch.SetLossModel(netsim.NewGilbertElliott(
				ev.PGoodBad, ev.PBadGood, ev.LossGood, ev.LossBad, seed+int64(j)))
		}
	case ClearLoss:
		for _, ch := range in.links[ev.Target] {
			ch.SetLossModel(nil)
		}
	case Blackhole:
		sw := in.switches[ev.Target]
		v, m := tcam.DstIPRule(ev.DstIP)
		id := sw.TCAM().Insert(blackholePriority, v, m, tcam.Action{Drop: true})
		in.ruleIDs[blackholeKey(ev.Target, ev.DstIP)] = id
	case ClearBlackhole:
		sw := in.switches[ev.Target]
		key := blackholeKey(ev.Target, ev.DstIP)
		if id, ok := in.ruleIDs[key]; ok {
			// The rule can only be absent if the control plane removed
			// it underneath us; ignore that, the hole is gone either way.
			_ = sw.TCAM().Remove(id)
			delete(in.ruleIDs, key)
		}
	case SwitchReboot:
		delay := ev.BootDelay
		if delay <= 0 {
			delay = DefaultBootDelay
		}
		in.switches[ev.Target].Reboot(delay)
	case RogueTenant:
		in.startRogue(ev, seed)
	}
	in.recordSpan(ev)
}

func blackholeKey(target string, ip uint32) string {
	return fmt.Sprintf("%s/%08x", target, ip)
}

// roguePort is the UDP port rogue forgeries travel on — deliberately
// not the probe echo port, so victims don't amplify the flood.
const roguePort = 6666

// startRogue arms the hostile generator: a ticker forging one
// write-TPP per period from the event's seeded rng, for the rest of
// the run.
func (in *Injector) startRogue(ev Event, seed int64) {
	h := in.hosts[ev.Target]
	rng := rand.New(rand.NewSource(seed))
	period := netsim.Time(float64(netsim.Second) / ev.PPS)
	if period <= 0 {
		period = 1
	}
	in.sim.Every(in.sim.Now()+period, period, func() {
		in.RogueSent++
		h.Send(forgedTPP(h, rng, ev))
	})
}

// forgedTPP builds one hostile write: a STORE of a random value aimed
// at a random absolute SRAM word (almost always someone else's
// partition) or, one time in four, at the port scratch registers that
// hold other tenants' control state.  The address stream comes from
// the event's seeded rng, so a plan replays the identical forgery
// sequence.
func forgedTPP(h *endhost.Host, rng *rand.Rand, ev Event) *core.Packet {
	addr := mem.SRAMBase + mem.Addr(rng.Intn(mem.SRAMWords))
	if rng.Intn(4) == 0 {
		addr = mem.PortBase + mem.PortScratchBase + mem.Addr(rng.Intn(mem.PortScratchWords))
	}
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpSTORE, A: uint16(addr), B: 0},
	}, 1)
	tpp.SetWord(0, rng.Uint32())
	return &core.Packet{
		Eth:  core.Ethernet{Dst: ev.DstMAC, Src: h.MAC, Type: core.EtherTypeTPP},
		TPP:  tpp,
		IP:   &core.IPv4{TTL: 64, Proto: core.ProtoUDP, Src: h.IP, Dst: ev.DstIP},
		UDP:  &core.UDP{SrcPort: roguePort, DstPort: roguePort},
		Meta: core.Metadata{UID: h.NextUID()},
	}
}

// recordSpan emits the fault event into the packet-lifecycle span
// stream (UID 0: no packet).  Node carries the target's identity: the
// switch id for switch faults, the first channel's trace id for link
// faults.
func (in *Injector) recordSpan(ev Event) {
	if in.tracer == nil {
		return
	}
	var node uint32
	if sw, ok := in.switches[ev.Target]; ok {
		node = sw.ID()
	} else if h, ok := in.hosts[ev.Target]; ok {
		node = uint32(h.MAC.Uint64() & 0xFFFFFF)
	} else if chs := in.links[ev.Target]; len(chs) > 0 {
		// Gray events name the exact direction that changed state; the
		// symmetric link events name the link by its first channel.
		if ev.Kind == LinkGrayDown || ev.Kind == LinkGrayUp {
			node = chs[ev.Dir].TraceID()
		} else {
			node = chs[0].TraceID()
		}
	}
	stage := obs.StageFaultInject
	if ev.Kind.recovers() {
		stage = obs.StageFaultRecover
	}
	b := uint64(ev.DstIP)
	if ev.Kind == LinkGrayDown || ev.Kind == LinkGrayUp {
		b = uint64(ev.Dir)
	}
	in.tracer.Record(obs.SpanEvent{
		At: int64(in.sim.Now()), UID: 0, Node: node,
		Stage: stage, A: uint64(ev.Kind), B: b,
	})
}
