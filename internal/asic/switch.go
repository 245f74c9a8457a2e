package asic

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/l2"
	"repro/internal/l3"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tcam"
	"repro/internal/tcpu"
	"repro/internal/verify"
)

// Config parameterizes a switch.
type Config struct {
	// ID is the administratively assigned switch id ([Switch:SwitchID]).
	ID uint32
	// Ports is the port count.
	Ports int
	// QueueCapBytes is each port's egress queue capacity (default 150000,
	// one hundred 1500-byte frames).
	QueueCapBytes int
	// PipelineLatency is the fixed parse+lookup latency before a
	// packet reaches the queues (default 500ns, of which the §3.3
	// TCPU budget is a part): the link into a port hands the switch a
	// frame this long after its last bit arrived.
	PipelineLatency netsim.Time
	// TCPU configures the tiny CPU (instruction limit).
	TCPU tcpu.Config
	// Verify enables the paranoid parser: every TPP arriving on a
	// trusted port is statically verified before execution, and
	// programs with error-severity diagnostics are stripped instead
	// of run.  Nil (the default) trusts end-hosts to pre-verify, as
	// §3.5 assumes.  Zero-valued limits in the config are resolved
	// against this switch's TCPU instruction limit and port count.
	Verify *verify.Config

	// TPPRate enables the TCPU admission gate: a token bucket refilled
	// at TPPRate executions per second with burst capacity TPPBurst.
	// When the bucket is empty an arriving TPP is *not* executed — the
	// packet forwards unmodified with core.FlagThrottled set, degrading
	// to plain forwarding exactly as the line-rate argument requires —
	// and the tpps_throttled counter and a StageThrottle span record
	// the event.  Zero (the default) disables the gate: every TPP
	// executes, as the paper's per-packet cycle budget assumes.
	TPPRate float64
	// TPPBurst is the token bucket depth; zero is resolved to
	// guard.DefaultBurst when TPPRate is set, like the verify limits.
	TPPBurst int

	// Guard enables the multi-tenant isolation subsystem: per-tenant
	// SRAM partitions with base+bounds relocation, per-namespace ACLs
	// enforced fail-forward in the TCPU memory stage, and — when
	// TPPRate is also set — per-tenant admission buckets splitting the
	// aggregate rate by weighted share (replacing the global bucket).
	// Tenants are admitted with Switch.GrantTenant; the operator tenant
	// (id 0) is built in with full access, so a guarded switch carrying
	// only untenanted traffic behaves exactly like an unguarded one.
	Guard bool

	// Metrics exports this switch's counts and histograms
	// (hierarchically keyed switch/<id>/...).  The counts are the
	// switch's own words, read when the registry snapshots; only the
	// histograms are recorded on the hot path, through handles that are
	// nil — one branch, no allocation — when Metrics is nil.
	Metrics *obs.Registry
	// Trace records packet-lifecycle span events at every pipeline
	// stage (parser, lookup, TCPU, memory manager, egress queue,
	// scheduler).  Nil disables tracing.  The TCPU stage is one span
	// per execution (cycles, instructions).  The tracer has one
	// writer: the goroutine that runs the simulator.
	Trace *obs.Tracer
}

func (c *Config) fill() {
	if c.Ports <= 0 {
		c.Ports = 4
	}
	if c.QueueCapBytes <= 0 {
		c.QueueCapBytes = 150_000
	}
	if c.PipelineLatency <= 0 {
		c.PipelineLatency = 500 * netsim.Nanosecond
	}
	if c.TPPRate > 0 && c.TPPBurst <= 0 {
		c.TPPBurst = guard.DefaultBurst
	}
}

// The housekeeping period of the utilization meters and L2 aging, and
// the meters' EWMA gain.
const (
	statsInterval = 10 * netsim.Millisecond
	utilGain      = 0.5
)

// ForwardFunc observes every packet the switch forwards; the baseline
// ndb implementation (§2.3) attaches here to generate its truncated
// per-hop packet copies.
type ForwardFunc func(pkt *core.Packet, inPort, outPort int)

// ReflexHook is the dataplane failure-reaction agent (internal/reflex):
// it sees every packet after egress selection and may override the
// egress port — the sub-RTT fast-reroute path.  The hook runs at
// per-packet cadence on the forwarding hot path and must not allocate
// in steady state.
type ReflexHook interface {
	Transit(pkt *core.Packet, outPort int) int
}

// Switch is a TPP-capable switch.
type Switch struct {
	sim *netsim.Sim
	cfg Config

	ports []*Port
	l2    *l2.Table
	l3    *l3.Table
	tcam  *tcam.Table

	// wakeHorizon is the latest time a port's asked transmit-complete
	// is due at: before it, settle has nothing to look for.
	wakeHorizon netsim.Time

	alloc *mem.Allocator
	sram  []uint32

	packets       uint64 // packets switched
	cstores       uint64 // CSTORE commits (compare matched, store applied)
	tppsExecuted  uint64 // programs the TCPU ran (a refused one is only a fault)
	tppsStripped  uint64
	tppsRejected  uint64 // stripped by the paranoid verifier
	tppsThrottled uint64 // forwarded without execution (gate exhausted)
	tppsDenied    uint64 // guarded accesses denied (poisoned loads + dropped stores)
	ttlDrops      uint64
	blackholes    uint64 // packets with no forwarding decision

	tppFaults      uint64 // executions that ended in a TCPU fault
	tcpuOverBudget uint64 // executions that overran the cycle budget

	// Crash-restart state.  epoch is the boot generation counter
	// exposed at [Switch:Epoch]; it increments on every Reboot so
	// end-hosts can detect that soft state was wiped.  booting is set
	// for the boot-delay window, during which the switch eats every
	// arriving frame.  rebootAt and bootEnd are where the latest Reboot
	// and the end of its boot delay ran in the event order: a frame
	// delivered a pipeline latency after its arrival checks them.
	epoch       uint32
	booting     bool
	bootTimer   *netsim.Timer // ends the boot delay; a newer Reboot re-arms it
	rebootAt    netsim.Stamp
	bootEnd     netsim.Stamp
	reboots     uint64
	rebootDrops uint64 // packets eaten while down or wiped mid-pipeline

	// TCPU admission gate (active when cfg.TPPRate > 0 and the guard,
	// with its per-tenant buckets, is off).
	gate guard.Bucket

	// Tenant guard (nil unless cfg.Guard): the table holds every grant
	// in force plus the per-tenant admission buckets; tenantDenied
	// counts denials by the tenant id the TPP carried, registered or not.
	guard        *guard.Table
	tenantDenied map[guard.TenantID]uint64

	// spin holds the fixed-function spin-bit observers (§4-style
	// comparator; nil when none are installed).  The slice keeps watch
	// iteration deterministic.
	spin []*spinWatch

	mirror ForwardFunc
	reflex ReflexHook

	// progCache holds this switch's compiled TPPs, keyed on wire bytes
	// plus the TCPU config the compilation was produced under, so
	// repeated flows never re-validate an instruction section.  It is
	// flushed on Reboot and on every tenant grant change (see guard.go):
	// the compilation itself bakes no guard state in, but a flush is
	// cheap and makes staleness structurally impossible.
	progCache *tcpu.Cache

	// execView and execGuard are the per-execution memory-view scratch:
	// the dataplane is single-threaded (one event at a time), so the
	// TCPU can reuse one view per switch instead of allocating one per
	// packet.  They are rebound in execTPP and never escape it.
	execView  view
	execGuard guardedView

	// Telemetry: span tracer plus pre-resolved histogram handles (all
	// nil when disabled — recording through them is then a no-op).
	tracer *obs.Tracer
	m      switchMetrics
}

// switchMetrics bundles the per-switch histogram handles, resolved once
// at construction so the dataplane never does name lookups.  Counts are
// not here: collect names the switch's own words at snapshot.
type switchMetrics struct {
	tcpuCycles *obs.Histogram // modeled cycles per TPP execution
	hopLatency *obs.Histogram // ns from parser to scheduler dequeue
}

// New builds a switch and registers its housekeeping ticker with the
// simulator.
func New(sim *netsim.Sim, cfg Config) *Switch {
	cfg.fill()
	if cfg.Verify != nil {
		// Resolve the verifier against this device's actual limits so
		// static acceptance matches what the TCPU will enforce.
		v := *cfg.Verify
		if v.MaxInstructions <= 0 {
			v.MaxInstructions = cfg.TCPU.MaxInstructions
		}
		if v.Ports <= 0 {
			v.Ports = cfg.Ports
		}
		cfg.Verify = &v
	}
	s := &Switch{
		sim:    sim,
		cfg:    cfg,
		l2:     l2.New(l2.DefaultAge),
		l3:     l3.New(),
		tcam:   tcam.New(),
		alloc:  mem.NewAllocator(),
		sram:   make([]uint32, mem.SRAMWords),
		tracer: cfg.Trace,
	}
	s.bootTimer = sim.NewTimer(s.bootDone)
	s.progCache = tcpu.NewCache(cfg.TCPU, 0)
	s.gate = guard.FullBucket(cfg.TPPBurst, 0)
	if cfg.Guard {
		s.guard = guard.NewTable(s.alloc)
		s.tenantDenied = make(map[guard.TenantID]uint64)
	}
	// Like the ASIC's per-port registers, the ports (each holding its
	// queue) and the pointers to them are fixed arrays sized once: one
	// allocation per kind, whatever the port count.
	ports := make([]Port, cfg.Ports)
	s.ports = make([]*Port, cfg.Ports)
	for i := range ports {
		ports[i] = Port{
			sw:      s,
			id:      i,
			queue:   Queue{capBytes: cfg.QueueCapBytes},
			trusted: true,
			rxUtil:  newMeter(utilGain, statsInterval.Seconds()),
			txUtil:  newMeter(utilGain, statsInterval.Seconds()),
		}
		s.ports[i] = &ports[i]
	}
	// Metric names are formatted only for a registry that will keep
	// them: disabled telemetry costs nothing per port.
	if reg := cfg.Metrics; reg != nil {
		s.m = switchMetrics{
			tcpuCycles: reg.Histogram(fmt.Sprintf("switch/%d/tcpu_cycles", cfg.ID)),
			hopLatency: reg.Histogram(fmt.Sprintf("switch/%d/hop_latency_ns", cfg.ID)),
		}
		for _, p := range s.ports {
			p.mQueueDepth = reg.Histogram(fmt.Sprintf("switch/%d/port/%d/queue_depth_bytes", cfg.ID, p.id))
		}
		reg.Collect(s.collect)
	}
	sim.Every(statsInterval, statsInterval, s.housekeeping)
	return s
}

// collect names this switch's counts for the registry's pull edge: each
// row is the word its accessor returns, read when the registry
// snapshots.
func (s *Switch) collect(emit func(name string, v uint64)) {
	pre := fmt.Sprintf("switch/%d/", s.cfg.ID)
	emit(pre+"packets", s.packets)
	emit(pre+"tpps_executed", s.tppsExecuted)
	emit(pre+"tpp_faults", s.tppFaults)
	emit(pre+"tcpu_over_budget", s.tcpuOverBudget)
	emit(pre+"tpps_stripped", s.tppsStripped)
	emit(pre+"tpps_rejected", s.tppsRejected)
	emit(pre+"tpps_throttled", s.tppsThrottled)
	emit(pre+"tpps_denied", s.tppsDenied)
	emit(pre+"ttl_drops", s.ttlDrops)
	emit(pre+"blackholes", s.blackholes)
	emit(pre+"reboots", s.reboots)
	emit(pre+"reboot_drops", s.rebootDrops)
	emit(pre+"cstore_commits", s.cstores)
	var edges, samples uint64
	for _, w := range s.spin {
		edges += w.edges
		samples += w.samples
	}
	emit(pre+"spin_edges", edges)
	emit(pre+"spin_samples", samples)
	for id, n := range s.tenantDenied { //lint:allow maporder (Snapshot sorts the rows)
		emit(fmt.Sprintf("%stenant/%d/tpps_denied", pre, id), n)
	}
	for _, p := range s.ports {
		emit(fmt.Sprintf("%sport/%d/tx_bytes", pre, p.id), p.txBytes)
		emit(fmt.Sprintf("%sport/%d/drops", pre, p.id), p.dropPkts())
	}
}

// span records one lifecycle event for pkt at the current simulated
// time.  It is the tracing gate, inlined into every stage: with tracing
// disabled a stage pays one nil branch, and neither the event nor a call
// is made.  A stage whose arguments cost work to compute (a WireLen, a
// QueueBytes sum) tests s.tracer itself before computing them.
//
//alloc:free
//alloc:inline
func (s *Switch) span(pkt *core.Packet, stage obs.Stage, a, b uint64) {
	if s.tracer != nil {
		s.recordSpan(pkt, s.sim.Now(), stage, a, b)
	}
}

// spanAt is span for a stage that happened at an earlier time: the
// parse-side stages run when the pipeline latency has elapsed, but are
// recorded at the frame's arrival.
//
//alloc:free
//alloc:inline
func (s *Switch) spanAt(pkt *core.Packet, at netsim.Time, stage obs.Stage, a, b uint64) {
	if s.tracer != nil {
		s.recordSpan(pkt, at, stage, a, b)
	}
}

// recordSpan is span's body, kept out of line so that span stays
// within the inlining budget.
//
//alloc:free
//go:noinline
func (s *Switch) recordSpan(pkt *core.Packet, at netsim.Time, stage obs.Stage, a, b uint64) {
	s.tracer.Record(obs.SpanEvent{
		At: int64(at), UID: pkt.Meta.UID, Node: s.cfg.ID,
		Stage: stage, A: a, B: b,
	})
}

// ID returns the switch id.
func (s *Switch) ID() uint32 { return s.cfg.ID }

// Ports returns the port count.
func (s *Switch) Ports() int { return len(s.ports) }

// Port returns port i.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// L3 exposes the LPM table for control-plane configuration.
func (s *Switch) L3() *l3.Table { return s.l3 }

// TCAM exposes the flow table for control-plane configuration.
func (s *Switch) TCAM() *tcam.Table { return s.tcam }

// Allocator exposes the control-plane SRAM allocator.
func (s *Switch) Allocator() *mem.Allocator { return s.alloc }

// SRAM reads scratch word i directly (control-plane access).  An
// out-of-range index reads as zero rather than panicking: debug tooling
// drives this path with untrusted offsets, and a typo must not take the
// simulation down with it.
func (s *Switch) SRAM(i int) uint32 {
	if i < 0 || i >= len(s.sram) {
		return 0
	}
	return s.sram[i]
}

// SetSRAM writes scratch word i directly (control-plane access).
// Out-of-range indexes are a no-op, mirroring SRAM.
func (s *Switch) SetSRAM(i int, v uint32) {
	if i < 0 || i >= len(s.sram) {
		return
	}
	s.sram[i] = v
}

// SetMirror installs the forwarding observer.
func (s *Switch) SetMirror(fn ForwardFunc) { s.mirror = fn }

// SetReflex installs the dataplane failure-reaction hook (nil
// uninstalls it).  The hook runs on every forwarded packet after the
// egress decision and may override it.
func (s *Switch) SetReflex(h ReflexHook) { s.reflex = h }

// InjectLocal enqueues a switch-originated control frame (a reflex
// heartbeat, in practice) directly on egress port out.  The frame is
// firmware output, not transit traffic: it bypasses the lookup
// pipeline, the TCPU and the reflex hook — a heartbeat must probe the
// port it was aimed at even while that port's traffic is detoured.
// Returns false when the switch is mid-boot, the port is unwired, or
// the egress queue dropped the frame.
func (s *Switch) InjectLocal(pkt *core.Packet, out int) bool {
	if s.booting {
		s.dropRebooted(pkt, out, s.sim.Now())
		return false
	}
	if out < 0 || out >= len(s.ports) || !s.ports[out].Wired() {
		s.blackholes++
		s.span(pkt, obs.StageBlackhole, uint64(out), uint64(out))
		pkt.Recycle()
		return false
	}
	pkt.Meta.OutPort = uint32(out)
	pkt.Meta.WireLen = uint32(pkt.WireLen())
	pkt.Meta.EnqueuedAt = int64(s.sim.Now())
	return s.ports[out].enqueue(pkt)
}

// PacketsSwitched returns the cumulative forwarded-packet count.
func (s *Switch) PacketsSwitched() uint64 { return s.packets }

// CStoreCommits returns how many conditional stores committed (compare
// matched and the store was applied) on this switch.  Like the other
// Go-side counters it survives Reboot — the SRAM words the commits
// landed in do not, which is exactly the discrepancy the in-band
// telemetry reconciliation measures.
func (s *Switch) CStoreCommits() uint64 { return s.cstores }

// TPPsExecuted returns how many TPPs the TCPU has run.
func (s *Switch) TPPsExecuted() uint64 { return s.tppsExecuted }

// TPPsStripped returns how many TPPs were removed at untrusted ports.
func (s *Switch) TPPsStripped() uint64 { return s.tppsStripped }

// TPPsThrottled returns how many TPPs the admission gate declined to
// execute (their packets forwarded unmodified).
func (s *Switch) TPPsThrottled() uint64 { return s.tppsThrottled }

// TTLDrops returns how many routed packets expired at this switch.
func (s *Switch) TTLDrops() uint64 { return s.ttlDrops }

// Blackholes returns how many packets had no wired egress to leave by.
func (s *Switch) Blackholes() uint64 { return s.blackholes }

// Epoch returns the boot generation counter, the value exposed at
// [Switch:Epoch]: zero until the first crash-restart.
func (s *Switch) Epoch() uint32 { return s.epoch }

// Booting reports whether the switch is inside a reboot's boot-delay
// window (eating every arriving frame).
func (s *Switch) Booting() bool { return s.booting }

// Reboots returns how many crash-restarts this switch has suffered.
func (s *Switch) Reboots() uint64 { return s.reboots }

// RebootDrops returns how many packets reboots have eaten: frames
// arriving while the switch was down plus packets wiped mid-pipeline
// or out of the egress queues.
func (s *Switch) RebootDrops() uint64 { return s.rebootDrops }

// Reboot crash-restarts the switch: every queued and in-pipeline
// packet is dropped, scratch SRAM is zeroed, the allocator's task
// regions are released, learned L2 entries and per-port task scratch
// are cleared, and for bootDelay the switch eats every arriving frame.
// The TCAM, the L3 table and tenant grants (with their partitions)
// survive — they are config, reloaded from NVRAM by the boot — so
// forwarding resumes unaided once the boot delay elapses.  The boot
// generation counter at [Switch:Epoch] increments immediately, which is
// how end-hosts later discover the wipe.
func (s *Switch) Reboot(bootDelay netsim.Time) {
	s.epoch++
	s.booting = true
	s.reboots++
	s.rebootAt = s.sim.Stamp()

	// Wipe soft state.  Flushed queue packets count as reboot drops so
	// packet conservation stays provable across the crash.
	clear(s.sram)
	s.alloc.Reset()
	s.l2.Flush()
	for _, p := range s.ports {
		p.scratch = [mem.PortScratchWords]uint32{}
		p.snr = 0
		port := p.ID()
		flushed := p.queue.Flush(func(pkt *core.Packet) {
			if s.tracer != nil {
				s.span(pkt, obs.StageRebootDrop, uint64(port), uint64(pkt.WireLen()))
			}
		})
		s.rebootDrops += uint64(flushed)
	}
	// Spin-observer edge tracking is soft state too: the wipe loses
	// which bit was last seen, so the first post-boot packet re-anchors
	// instead of producing a bogus interval.
	for _, w := range s.spin {
		w.reset()
	}
	// The admission gate's buckets are soft state too: boot refills
	// them.  Tenant grants survive — they are config, like the TCAM —
	// and the freshly zeroed SRAM is exactly the blank partition a new
	// grant would get.
	s.gate = guard.FullBucket(s.cfg.TPPBurst, s.sim.Now())
	if s.guard != nil {
		s.guard.ResetBuckets(s.sim.Now())
	}
	// Compiled programs are soft state: a restarted ASIC renegotiates
	// its configuration, so nothing compiled before the crash may run
	// after it.
	s.progCache.Invalidate()

	s.tracer.Record(obs.SpanEvent{
		At: int64(s.sim.Now()), UID: 0, Node: s.cfg.ID,
		Stage: obs.StageSwitchReboot, A: uint64(s.epoch), B: uint64(bootDelay),
	})

	// A reboot during an earlier one's boot delay restarts the delay.
	s.bootTimer.Reset(s.sim.Now() + bootDelay)
}

// bootDone ends the boot delay of the latest Reboot.
func (s *Switch) bootDone() {
	s.booting = false
	s.bootEnd = s.sim.Stamp()
	s.tracer.Record(obs.SpanEvent{
		At: int64(s.sim.Now()), UID: 0, Node: s.cfg.ID,
		Stage: obs.StageSwitchUp, A: uint64(s.epoch),
	})
}

// dropRebooted counts and records one packet eaten by a crash-restart
// at time at.
//
//alloc:free
func (s *Switch) dropRebooted(pkt *core.Packet, port int, at netsim.Time) {
	s.rebootDrops++
	if s.tracer != nil {
		s.spanAt(pkt, at, obs.StageRebootDrop, uint64(port), uint64(pkt.WireLen()))
	}
	pkt.Recycle()
}

func (s *Switch) housekeeping() {
	for _, p := range s.ports {
		p.tick()
	}
	s.l2.Expire(int64(s.sim.Now()))
}

// Inbound implements netsim.Pipelined: c feeds port, and hands the
// switch each frame a pipeline latency after its last bit arrived.
func (s *Switch) Inbound(port int, c *netsim.Channel) netsim.Time {
	s.ports[port].in = c
	return s.cfg.PipelineLatency
}

// Receive implements netsim.Receiver: the packet's last bit arrived on
// port one pipeline latency ago.  The link hands a frame over once the
// fixed parse/lookup latency has elapsed, so this one event does the
// whole hop: it parses, strips and verifies as of the arrival (their
// spans and the packet's EnqueuedAt carry that time), then looks up,
// runs the TCPU and enqueues now.
//
//alloc:free
func (s *Switch) Receive(pkt *core.Packet, port int) {
	arr := s.sim.Stamp()
	arr.At -= s.cfg.PipelineLatency
	// A crash-restart eats a frame that arrived while the switch was
	// booting — electrically absent, it never parses the frame — and
	// one that was in the parse/lookup stages when it crashed.
	wiped := s.booting || s.reboots > 0 && arr.Before(s.bootEnd)
	if wiped && s.rebootAt.Before(arr) {
		s.dropRebooted(pkt, port, arr.At)
		return
	}
	p, wire := s.ports[port], pkt.WireLen()
	p.rxBytes += uint64(wire)
	s.spanAt(pkt, arr.At, obs.StageParser, uint64(port), uint64(wire))

	// §4 security: untrusted edge ports strip TPPs.
	if pkt.TPP != nil && !p.trusted {
		s.spanAt(pkt, arr.At, obs.StageStrip, uint64(port), 0)
		pkt = s.stripTPP(pkt)
		s.tppsStripped++
		if pkt == nil {
			return // nothing remained to forward
		}
		wire = pkt.WireLen()
	}

	// Paranoid parser: statically reject programs that would fault or
	// overrun the cycle budget, stripping them before they reach the
	// TCPU.
	if pkt.TPP != nil && s.cfg.Verify != nil {
		if res := verify.Verify(pkt.TPP, *s.cfg.Verify); !res.OK() {
			s.spanAt(pkt, arr.At, obs.StageVerifyReject, uint64(port), uint64(len(res.Errors())))
			pkt = s.stripTPP(pkt)
			s.tppsRejected++
			if pkt == nil {
				return
			}
			wire = pkt.WireLen()
		}
	}

	pkt.Meta = core.Metadata{
		UID:        pkt.Meta.UID,
		InPort:     uint32(port),
		WireLen:    uint32(wire),
		EnqueuedAt: int64(arr.At),
	}
	s.settle(arr)
	if wiped {
		s.dropRebooted(pkt, port, s.sim.Now())
		return
	}
	s.forward(pkt, port)
}

// settle runs, in their queued order, the transmit-completes of this
// switch's ports that are due now and were reserved before the frame
// arriving at arr did: the ones that ran ahead of its pipeline stage
// when the stage was an event of its own, queued on arrival.  The
// stage reads what they change (queue occupancy for the TCPU and the
// tail-drop check, transmit counters, the channel's busy state).
//
//alloc:free
func (s *Switch) settle(arr netsim.Stamp) {
	if s.wakeHorizon < s.sim.Now() {
		return
	}
	for {
		var next *netsim.Channel
		var first uint64
		for _, p := range s.ports {
			if p.ch == nil {
				continue
			}
			if seq, due := p.ch.DueBefore(arr); due && (next == nil || seq < first) {
				next, first = p.ch, seq
			}
		}
		if next == nil {
			return
		}
		next.CompleteNow()
	}
}

// stripTPP removes the TPP section, leaving the encapsulated payload as
// an ordinary frame; a bare TPP with no payload vanishes entirely.
// Stripping is a death point for the incoming packet: the survivor is a
// fresh clone without the TPP, drawn from the simulation's pool, and
// the original is recycled (a no-op for host-owned packets, which the
// sender may still hold).
//
//alloc:free
func (s *Switch) stripTPP(pkt *core.Packet) *core.Packet {
	if pkt.IP == nil {
		pkt.Recycle()
		return nil
	}
	out := s.sim.Pool().Clone(pkt)
	out.TPP = nil
	out.Eth.Type = core.EtherTypeIPv4
	pkt.Recycle()
	return out
}

// forward runs the lookup pipeline and commits the packet to its
// egress queue(s).
//
//alloc:free
func (s *Switch) forward(pkt *core.Packet, inPort int) {
	s.packets++

	// Lookup precedence mirrors §3.1's pipeline: the TCAM slices see
	// the packet first, then L3 LPM, then the L2 hash table.
	if e := s.lookupTCAM(pkt, inPort); e != nil {
		s.span(pkt, obs.StageLookupTCAM, uint64(e.ID), uint64(e.Version))
		if e.Action.Drop {
			pkt.Recycle()
			return // dropped by rule (its journey ends at the lookup span)
		}
		pkt.Meta.MatchedEntry = e.ID
		pkt.Meta.MatchedVer = e.Version
		s.deliver(pkt, inPort, e.Action.OutPort)
		return
	}

	if pkt.IP != nil && s.l3.Size() > 0 {
		if rt, ok := s.l3.Lookup(pkt.IP.Dst); ok {
			if pkt.IP.TTL <= 1 {
				s.ttlDrops++
				s.span(pkt, obs.StageTTLDrop, uint64(inPort), 0)
				pkt.Recycle()
				return
			}
			pkt.IP.TTL--
			s.span(pkt, obs.StageLookupL3, uint64(rt.OutPort), uint64(pkt.IP.TTL))
			s.deliver(pkt, inPort, rt.OutPort)
			return
		}
	}
	s.forwardL2(pkt, inPort)
}

// lookupTCAM returns the rule that decides pkt, or nil when no rule
// covers it.
//
//alloc:free
func (s *Switch) lookupTCAM(pkt *core.Packet, inPort int) *tcam.Entry {
	if s.tcam.Size() == 0 || pkt.IP == nil {
		return nil
	}
	key := tcam.Key{
		tcam.KeyDstIP:  pkt.IP.Dst,
		tcam.KeySrcIP:  pkt.IP.Src,
		tcam.KeyProto:  uint32(pkt.IP.Proto),
		tcam.KeyInPort: uint32(inPort),
	}
	e, n := s.tcam.Lookup(key)
	if e != nil {
		// Table 2: "alternate routes for a packet" — every installed
		// rule covering this packet is a forwarding alternative.
		pkt.Meta.AltRoutes = uint32(n)
	}
	return e
}

//alloc:free
func (s *Switch) forwardL2(pkt *core.Packet, inPort int) {
	now := int64(s.sim.Now())
	s.l2.Learn(pkt.Eth.Src, inPort, now)
	if !pkt.Eth.Dst.IsBroadcast() {
		if out, ok := s.l2.Lookup(pkt.Eth.Dst, now); ok {
			s.span(pkt, obs.StageLookupL2, uint64(out), 0)
			s.deliver(pkt, inPort, out)
			return
		}
	}
	// Flood: every wired port except the ingress, each copy carrying
	// (and executing) its own TPP.  The last egress forwards the
	// original packet itself; only the other egresses need copies,
	// drawn from the simulation's packet pool.
	last := -1
	for _, p := range s.ports {
		if p.id != inPort && p.Wired() {
			last = p.id
		}
	}
	if last < 0 {
		s.blackholes++
		s.span(pkt, obs.StageBlackhole, uint64(inPort), 0)
		pkt.Recycle()
		return
	}
	for _, p := range s.ports {
		if p.id == inPort || !p.Wired() {
			continue
		}
		s.span(pkt, obs.StageLookupL2, uint64(p.id), 1)
		if p.id == last {
			s.deliver(pkt, inPort, p.id)
		} else {
			s.deliver(s.sim.Pool().Clone(pkt), inPort, p.id)
		}
	}
}

// deliver finalizes metadata, runs the TCPU, and enqueues the packet on
// its egress port.
//
//alloc:free
func (s *Switch) deliver(pkt *core.Packet, inPort, outPort int) {
	// The reflex hook may override the egress decision: when the chosen
	// port's next-hop is dead, the arm fires its CAS-checked TCAM
	// rewrite and re-steers this very packet onto the backup — sub-RTT
	// recovery includes the triggering packet.
	if s.reflex != nil {
		outPort = s.reflex.Transit(pkt, outPort)
	}
	if outPort < 0 || outPort >= len(s.ports) || !s.ports[outPort].Wired() {
		s.blackholes++
		s.span(pkt, obs.StageBlackhole, uint64(inPort), uint64(outPort))
		pkt.Recycle()
		return
	}
	pkt.Meta.OutPort = uint32(outPort)

	if s.mirror != nil {
		s.mirror(pkt, inPort, outPort)
	}

	if pkt.IP != nil {
		for _, w := range s.spin {
			w.observe(s, pkt)
		}
	}

	// "The tiny CPU (TCPU) that processes TPPs is placed just before
	// the packet is stored in memory."  Non-TPP packets are ignored
	// by the TCPU.
	if pkt.TPP != nil && pkt.Eth.Type == core.EtherTypeTPP {
		if !s.admitTPP(guard.TenantID(pkt.TPP.Tenant)) {
			// Overload protection: out of tokens, so the program does
			// not run here.  The packet forwards unmodified with the
			// hop-visible throttle bit, letting the end-host tell an
			// overloaded TCPU apart from a blackhole.
			pkt.TPP.Flags |= core.FlagThrottled
			s.tppsThrottled++
			s.span(pkt, obs.StageThrottle, uint64(outPort), uint64(inPort))
		} else {
			s.execTPP(pkt, outPort)
		}
	}

	// The memory manager admits the packet into shared buffer memory
	// just after the TCPU; A is 0 (the port's one queue), B the
	// occupancy it sees before this packet is admitted.
	if s.tracer != nil {
		s.span(pkt, obs.StageMemMgr, 0, uint64(s.ports[outPort].QueueBytes()))
	}
	s.ports[outPort].enqueue(pkt)
}

// admitTPP charges the admission gate one token, refilling the bucket
// from the dataplane clock first.  An unconfigured gate admits
// everything.  With the tenant guard on, the aggregate rate is split
// into per-tenant buckets by weighted share, so a flooding tenant
// drains only its own quota; without it, every TPP shares one bucket.
//
//alloc:free
func (s *Switch) admitTPP(id guard.TenantID) bool {
	if s.cfg.TPPRate <= 0 {
		return true
	}
	if s.guard != nil {
		return s.guard.Admit(id, s.sim.Now(), s.cfg.TPPRate)
	}
	s.gate.Fill(s.sim.Now(), s.cfg.TPPRate, s.cfg.TPPBurst)
	return s.gate.Take()
}

// execTPP runs the packet's program on the TCPU and records the
// execution telemetry.  With the tenant guard on, the memory view is
// wrapped with the tenant's grant: denied accesses fail forward (poison
// loads, dropped stores) and surface as FlagAccessFault on the program.
//
// The memory views live in per-switch scratch (the dataplane processes
// one event at a time, so one view per switch suffices), and the
// program runs under a cached validation verdict: the one the trusted
// edge attached when its baked config matches this device, otherwise
// the ingress program cache's.
//
//alloc:free
func (s *Switch) execTPP(pkt *core.Packet, outPort int) {
	s.execView = view{sw: s, pkt: pkt, port: s.ports[outPort]}
	var v mem.View = &s.execView
	var gv *guardedView
	if s.guard != nil {
		g, _ := s.guard.Lookup(guard.TenantID(pkt.TPP.Tenant)) // unknown: zero grant, deny-all
		s.execGuard = guardedView{v: &s.execView, grant: g, tenant: guard.TenantID(pkt.TPP.Tenant)}
		gv = &s.execGuard
		v = gv
	}
	var res tcpu.Result
	if prog := s.compiledFor(pkt.TPP); prog != nil {
		res = prog.Exec(pkt.TPP, v)
	} else {
		res = s.cfg.TCPU.Exec(pkt.TPP, v)
	}
	if gv != nil && gv.denies > 0 {
		pkt.TPP.Flags |= core.FlagAccessFault
	}
	// A program the TCPU refused before its first instruction (too
	// long, malformed header or operand) is a fault, not an execution.
	if res.Executed > 0 || res.Fault == nil {
		s.tppsExecuted++
	}
	s.m.tcpuCycles.Observe(uint64(res.Cycles))
	if res.Fault != nil {
		s.tppFaults++
	}
	if !res.WithinBudget() {
		s.tcpuOverBudget++
	}
	s.span(pkt, obs.StageTCPU, uint64(res.Cycles), uint64(res.Executed))
}

// compiledFor resolves the compiled form of t's program: the program
// the trusted edge attached when its baked device config matches this
// switch, otherwise this switch's own ingress cache.  A nil return
// means Config.Exec must validate afresh (program too long to cache).
//
//alloc:free
func (s *Switch) compiledFor(t *core.TPP) *tcpu.Program {
	if p, ok := t.Compiled.(*tcpu.Program); ok && p != nil &&
		p.Matches(s.cfg.TCPU) && p.MatchesTPP(t) {
		return p
	}
	return s.progCache.Get(t)
}

// ProgCacheStats exposes the ingress program cache's hit/miss counters
// for tests and capacity planning.
func (s *Switch) ProgCacheStats() (hits, misses uint64) { return s.progCache.Stats() }

// Wire connects port i to ch (the egress direction).  Panics on an
// invalid port: mis-wiring is a topology construction bug.
func (s *Switch) Wire(i int, ch *netsim.Channel) {
	if i < 0 || i >= len(s.ports) {
		panic(fmt.Sprintf("asic: wiring invalid port %d", i))
	}
	s.ports[i].Wire(ch)
}
