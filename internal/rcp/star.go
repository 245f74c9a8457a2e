package rcp

import (
	"fmt"
	"math"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// Statistic addresses of the collect-phase program.
var (
	addrSwitchID = mem.SwitchBase + mem.SwitchID
	addrQueue    = mem.PortBase + mem.PortQueueSize
	addrRXUtil   = mem.PortBase + mem.PortRXUtil
	addrRateReg  = mem.PortBase + mem.PortScratchBase // Link:RCP-RateRegister
	addrCapacity = mem.PortBase + mem.PortCapacity
	addrEpoch    = mem.SwitchBase + mem.SwitchEpoch
)

// collectStats is the paper's phase-1 program plus a fifth PUSH of the
// boot generation counter, which rides along at exactly the
// 5-instruction device limit:
//
//	PUSH [Switch:SwitchID]
//	PUSH [Link:QueueSize]
//	PUSH [Link:RX-Utilization]
//	PUSH [Link:RCP-RateRegister]
//	PUSH [Switch:Epoch]
//
// The epoch lets the controller tell a rebooted switch (soft state
// wiped; must re-seed) from one whose register merely reads zero.
var collectStats = []mem.Addr{addrSwitchID, addrQueue, addrRXUtil, addrRateReg, addrEpoch}

// The controller's two probes never change, so each is assembled once
// and goes to the prober as it is: it sends a copy and keeps no
// reference.
var (
	collectProbe  = mustCollect(collectStats)
	capacityProbe = mustCollect([]mem.Addr{addrSwitchID, addrCapacity})
)

func mustCollect(stats []mem.Addr) *core.TPP {
	tpp, err := endhost.CollectProgram(stats, MaxHops, 5)
	if err != nil {
		panic(err)
	}
	return tpp
}

// collectWords is the per-hop record size of the collect probe.
const collectWords = 5

// MaxHops sizes probe packet memory; datacenter paths are "typically
// 5-7" hops (§2.1).
const MaxHops = 7

// degradeThreshold is how many consecutive probe deadlines the
// controller tolerates before it assumes the path itself changed (not
// just a lost frame) and falls back to capacity re-discovery.
const degradeThreshold = 4

// InitRateRegisters performs the control-plane initialization of §2.2
// footnote 3: "a control plane program initializes each link's fair
// share rate to its capacity."
func InitRateRegisters(switches ...*asic.Switch) {
	for _, sw := range switches {
		for i := 0; i < sw.Ports(); i++ {
			p := sw.Port(i)
			if p.Wired() {
				p.SetScratch(0, p.Channel().RateBytes())
			}
		}
	}
}

// StarController is one flow's rate controller in RCP*: an entirely
// end-host program that queries and modifies network state in the three
// phases of §2.2 (collect, compute, update).
type StarController struct {
	sim    *netsim.Sim
	host   *endhost.Host
	prober *endhost.Prober

	dstMAC core.MAC
	dstIP  uint32

	// Flow is the paced data flow whose rate this controller tunes.
	Flow *PacedFlow

	caps     []float64 // per-hop link capacity, discovered once
	qAvg     []float64 // per-hop EWMA of sampled queue sizes
	haveCaps bool
	missed   int // consecutive probe deadlines missed

	// epochs tracks the boot generation counter each collect echo now
	// carries, so a crash-restart is detected the very next interval.
	epochs *endhost.EpochTracker

	ticker *netsim.Ticker

	// c.onCollect, c.onCapacities and c.onMiss bound once: every tick
	// hands them to the prober, and a method value made per tick is a
	// heap closure each.
	onCollectFn    func(*core.TPP)
	onCapacitiesFn func(*core.TPP)
	onMissFn       func()

	// update is this controller's phase-3 program (endhost.Gated),
	// restamped per update with the bottleneck switch and the rate and
	// sent as a copy; samples is parseCollect's reused output.
	update  *core.TPP
	samples []hopSample

	// Telemetry for tests and experiments.
	Collects   uint64 // phase-1 echoes processed
	Updates    uint64 // phase-3 TPPs sent
	Timeouts   uint64 // probes that missed their deadline
	Reinits    uint64 // rate registers re-seeded after reading zero
	EpochBumps uint64 // switch reboots detected via the epoch word
	LastRate   float64

	// mRate is nil unless EnableMetrics was called.
	mRate *obs.Gauge
}

// EnableMetrics exports this controller's control-loop metrics under
// rcp/<name>/: collect echoes processed and update TPPs sent (Collects
// and Updates, read when the registry snapshots), and the current
// fair-share rate in bytes/sec.  A nil registry is a no-op.
func (c *StarController) EnableMetrics(reg *obs.Registry, name string) {
	reg.Collect(func(emit func(string, uint64)) {
		emit("rcp/"+name+"/collects", c.Collects)
		emit("rcp/"+name+"/updates", c.Updates)
	})
	c.mRate = reg.Gauge(fmt.Sprintf("rcp/%s/rate_bytes_per_sec", name))
}

// NewStarController builds the controller for one sender/receiver
// pair.  The caller starts the flow and the control loop with Start.
func NewStarController(sim *netsim.Sim, host *endhost.Host, prober *endhost.Prober,
	dstMAC core.MAC, dstIP uint32) *StarController {
	c := &StarController{
		sim: sim, host: host, prober: prober,
		dstMAC: dstMAC, dstIP: dstIP,
		epochs: endhost.NewEpochTracker(),
		Flow:   newPacedFlow(sim, host, dstMAC, dstIP, StarDataPort, nil),
		update: endhost.Gated(0, 3, core.Instruction{Op: core.OpSTORE, A: uint16(addrRateReg), B: 2}),
	}
	c.update.Ptr = 12 // packet memory is fully pre-initialized
	c.onCollectFn, c.onCapacitiesFn, c.onMissFn = c.onCollect, c.onCapacities, c.onMiss
	return c
}

// Start launches the periodic controller.  The data flow starts as soon
// as the first collect echo reveals the current fair-share rate, so a
// new flow "converges quickly to its fair share" instead of probing
// from zero.
func (c *StarController) Start() {
	c.ticker = c.sim.Every(c.sim.Now(), ControlPeriod, c.tick)
}

// Stop halts the control loop and the flow (e.g. when a finite flow
// completes).
func (c *StarController) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
	c.Flow.Stop()
	c.prober.Forget()
}

func (c *StarController) tick() {
	if !c.haveCaps {
		c.probeCapacities()
		return
	}
	c.probeCollect()
}

// probeTimeout bounds every control probe's lifetime so the pending
// set stays bounded on a faulty network.  The deadline must exceed the
// worst-case echo RTT — propagation plus a full queue, i.e. the RTT
// scale d — or healthy probes get reaped just before their echoes;
// twice d leaves comfortable slack while still reaping within a few
// control periods.
const probeTimeout = 2 * rttScale

// onMiss degrades gracefully: the flow holds its last-known rate (no
// sample means no evidence the fair share moved), and after
// degradeThreshold consecutive misses the controller re-enters
// discovery so recovery starts from scratch if the path changed.
func (c *StarController) onMiss() {
	c.Timeouts++
	c.missed++
	if c.missed >= degradeThreshold && c.haveCaps {
		c.haveCaps = false
		c.caps = c.caps[:0]
	}
}

// probeCapacities runs the one-time discovery of per-hop capacities
// (link capacities are static, so they need not burden the steady-state
// probe, keeping it within the 5-instruction device limit).
func (c *StarController) probeCapacities() {
	c.prober.ProbeCfg(c.dstMAC, c.dstIP, capacityProbe, endhost.ProbeConfig{Timeout: probeTimeout}, c.onCapacitiesFn, c.onMissFn)
}

func (c *StarController) onCapacities(e *core.TPP) {
	if c.haveCaps {
		return
	}
	c.missed = 0
	hops := e.Hop(2)
	c.caps = c.caps[:0]
	for i := 0; i < hops; i++ {
		c.caps = append(c.caps, float64(e.Word(i*2+1)))
	}
	c.qAvg = make([]float64, hops)
	c.haveCaps = len(c.caps) > 0
}

// probeCollect is phase 1; the echo handler runs phases 2 and 3.
func (c *StarController) probeCollect() {
	c.prober.ProbeCfg(c.dstMAC, c.dstIP, collectProbe, endhost.ProbeConfig{Timeout: probeTimeout}, c.onCollectFn, c.onMissFn)
}

// hopSample is one hop's record from a collect echo.
type hopSample struct {
	SwitchID uint32
	Queue    float64
	Util     float64
	RateReg  float64
	Epoch    uint32
}

// parseCollect decodes a collect echo's hop records into c.samples,
// which the next call overwrites.
func (c *StarController) parseCollect(e *core.TPP) []hopSample {
	hops := e.Hop(collectWords)
	out := c.samples[:0]
	for i := 0; i < hops; i++ {
		base := i * collectWords
		out = append(out, hopSample{
			SwitchID: e.Word(base),
			Queue:    float64(e.Word(base + 1)),
			Util:     float64(e.Word(base + 2)),
			RateReg:  float64(e.Word(base + 3)),
			Epoch:    e.Word(base + 4),
		})
	}
	c.samples = out
	return out
}

// onCollect implements phases 2 (compute) and 3 (update) of §2.2.
func (c *StarController) onCollect(e *core.TPP) {
	samples := c.parseCollect(e)
	if len(samples) == 0 || len(samples) > len(c.caps) {
		return
	}
	c.Collects++
	c.missed = 0

	// Crash detection: a bumped boot epoch means the switch wiped every
	// register this controller seeded.  Reconcile the hop by restarting
	// its queue EWMA from the new (empty) queues; the zero-register
	// check below re-runs the footnote-3 initialization for the wiped
	// rate register itself.
	for i := range samples {
		if c.epochs.Observe(samples[i].SwitchID, samples[i].Epoch) {
			c.EpochBumps++
			c.qAvg[i] = 0
		}
	}

	// A zero rate register means the switch lost its RCP state (reboot,
	// reset): re-run the footnote-3 initialization for that hop by
	// seeding the register with the link capacity, and use the capacity
	// as this interval's reading so the flow doesn't stall at zero.
	for i := range samples {
		if samples[i].RateReg == 0 {
			samples[i].RateReg = c.caps[i]
			c.sendUpdate(samples[i].SwitchID, c.caps[i])
			c.Reinits++
		}
	}

	// Phase 2: compute R_link for every hop from the collected
	// samples; the flow's rate is the minimum fair share read from
	// the registers, and the bottleneck is the link with the smallest
	// computed R_link.
	minReg := math.Inf(1)
	minR := math.Inf(1)
	bottleneck := -1
	var bottleneckRate float64
	for i, s := range samples {
		c.qAvg[i] = 0.5*s.Queue + 0.5*c.qAvg[i]
		r := nextRate(s.RateReg, s.Util, c.qAvg[i], c.caps[i])
		if r < minR {
			minR = r
			bottleneck = i
			bottleneckRate = r
		}
		if s.RateReg < minReg {
			minReg = s.RateReg
		}
	}

	// Phase 3: install the new fair-share rate on the bottleneck
	// switch only, via CEXEC + STORE.  "The end-host need not know
	// the actual route to reach the bottleneck switch link": the TPP
	// follows the flow's path and executes only where the switch id
	// matches.
	c.sendUpdate(samples[bottleneck].SwitchID, bottleneckRate)

	// Adopt the fair share read from the registers.
	if !math.IsInf(minReg, 1) && minReg > 0 {
		c.LastRate = minReg
		c.mRate.Set(int64(minReg))
		c.Flow.SetRate(minReg)
		if !c.Flow.Running() {
			c.Flow.Start()
		}
	}
}

// sendUpdate emits the phase-3 TPP:
//
//	CEXEC [Switch:SwitchID], 0xFFFFFFFF, $BottleneckSwitchID
//	STORE [Link:RCP-RateRegister], [PacketMemory:2]
func (c *StarController) sendUpdate(switchID uint32, rate float64) {
	u := c.update
	u.SetWord(1, switchID) // CEXEC value
	u.SetWord(2, uint32(math.Min(rate, float64(^uint32(0)))))

	// Fire and forget: the update needs no echo, and a lost update is
	// retried next interval anyway.  The packet carries a copy of u and
	// ends at the receiver's data sink (or wherever the fabric drops it).
	c.host.Send(c.host.NewProbePooled(c.dstMAC, c.dstIP, StarDataPort, StarDataPort, u))
	c.Updates++
}

// starScheme runs RCP* on a Harness: one StarController per pair, the
// fair share living in the bottleneck port's rate register.
type starScheme struct{ bottleneck *asic.Port }

func (s *starScheme) Install(h *Harness) {
	InitRateRegisters(h.A, h.B)
	s.bottleneck = h.A.Port(h.APort)
}

func (s *starScheme) Attach(h *Harness, pair int) Flow {
	snd, rcv := h.Senders[pair], h.Receivers[pair]
	ctl := NewStarController(h.Sim, snd, endhost.NewProber(snd), rcv.MAC, rcv.IP)
	if h.Metrics != nil {
		ctl.EnableMetrics(h.Metrics, fmt.Sprintf("flow%d", pair))
	}
	return Flow{Port: StarDataPort, Start: ctl.Start, Stop: ctl.Stop}
}

func (s *starScheme) FairShare() float64 { return float64(s.bottleneck.Scratch(0)) }
