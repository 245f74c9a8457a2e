package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/asic"
	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/guard"
	"repro/internal/l3"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rcp"
	"repro/internal/tcam"
	"repro/internal/tcpu"
	"repro/internal/topo"
	"repro/internal/verify"
)

// workload is one named set of inputs.  All six are closed loops with
// one client: the next batch (or experiment run) starts when the
// previous one has drained.
type workload struct {
	name string
	why  string
	// batch is the operations per closed-loop step: packets per batch,
	// or 1 for a sweep whose operation is a whole experiment run.
	batch int
	// warmup is the fixed number of steps run and discarded before
	// timing.  It is fixed work, so the sim_digest covers exactly it.
	warmup int
	// simSec is the simulated time one step advances.
	simSec float64
	// Exactly one of pkt and sweep is set: the line network a packet
	// workload sends through, or the experiment a sweep runs per step.
	pkt   *pktShape
	sweep func(s *sweepInst, seed int64) bool
}

// pktShape selects a packet workload's traffic and topology.
type pktShape struct {
	mode  pktMode
	obs   bool  // metrics registry and span tracer attached
	kinds []int // one switch per entry; a kind selects config and tables
}

// new builds a fresh instance from seed.  Packet workloads record their
// set-up spans under tr (nil when untraced).
func (w *workload) new(seed int64, tr *tracer) instance {
	if w.pkt != nil {
		return newPktInst(w, seed, w.pkt.kinds, tr)
	}
	return &sweepInst{seed: seed, run: w.sweep, dig: newDigest()}
}

// instance is one set-up copy of a workload.
type instance interface {
	// step runs closed-loop step i (counted from the first warm-up
	// step) and returns how many of its operations failed.
	step(i int, tr *tracer) int
	// endWarmup closes the digest over everything simulated so far.
	endWarmup() string
	counts() counts
}

// counts are the per-layer work counters read from public accessors
// after a run.  Sweeps only fill what their results expose.
type counts struct {
	pkts          uint64 // packets the driver sent
	pendingInject uint64 // sum over batches of Sim.Pending() after injection
	batches       uint64
	switched      uint64
	tppsExecuted  uint64
	tppsDenied    uint64
	tppsThrottled uint64
	tppsStripped  uint64
	dropBytes     uint64
	cacheHits     uint64
	cacheMisses   uint64
	cstoreCommits uint64
	cstoresSent   uint64
	faulted       uint64 // packets delivered carrying FlagAccessFault
	nicDrops      uint64
	nicRejected   uint64
	spans         uint64
	spansDropped  uint64
}

var workloads = []*workload{
	{
		name: "fwd_burst_line5", batch: 4096, warmup: 16, simSec: batchSim.Seconds(), pkt: &pktShape{mode: modeFwd, kinds: make([]int, readHops)},
		why: "bare forwarding, 4096-packet bursts over 5 switches: netsim heap + asic L2/enqueue + core pool; bypasses tcpu and obs",
	},
	{
		name: "tpp_read_line5", batch: 64, warmup: 200, simSec: batchSim.Seconds(), pkt: &pktShape{mode: modeRead, kinds: make([]int, readHops)},
		why: "one hot 5-PUSH read program at every hop, shallow heap: largest share tcpu + mem view + asic.execTPP can have",
	},
	{
		name: "tpp_write_mix3", batch: 64, warmup: 200, simSec: batchSim.Seconds(), pkt: &pktShape{mode: modeMix, kinds: []int{0, 1, 2}},
		why: "256 write programs, 80/20 hot/cold over a 64-entry cache, guarded tenants, 1/16 denied, tcam+l3+l2 lookups",
	},
	{
		name: "tpp_read_line5_obs", batch: 64, warmup: 200, simSec: batchSim.Seconds(), pkt: &pktShape{mode: modeRead, obs: true, kinds: make([]int, readHops)},
		why: "tpp_read_line5 with metrics and span tracing on: the price of watching; obs does the extra work here only",
	},
	{
		name: "fig2_sweep", batch: 1, warmup: 3, simSec: rcp.DefaultFig2Config(rcp.VariantStar).Duration.Seconds(), sweep: runFig2,
		why: "whole Figure 2 RCP* runs incl. per-run set-up: rcp controllers, prober, closure timers; the allocating path",
	},
	{
		name: "chaos_sweep", batch: 1, warmup: 3, simSec: chaos.Default(1).Duration.Seconds(), sweep: runChaos,
		why: "chaos soak runs: fabric diff/apply/verify/converge, scenario+yamlite parsing, faults, reboots, obs in one run",
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- packet workloads ----

const (
	// batchSim is the simulated time each batch is given to drain.
	batchSim = 10 * netsim.Millisecond
	// minPayload pads frames to the 60-byte minimum: packet size only
	// changes simulated serialization time (PadLen is virtual), so the
	// minimum frame leaves per-packet host cost undiluted.
	minPayload = 18
	// seqLen is the length of the seeded input table packets cycle
	// through (program choice, flags, UDP ports).
	seqLen = 1 << 16

	readHops     = 5
	readMemWords = 5 * readHops

	// tpp_write_mix3 shapes.
	mixPrograms   = 256
	mixHot        = 8
	mixTenants    = 4
	mixGrantWords = 256
	mixOOBOffset  = 1024 // pushes an SRAM operand outside every grant
	mixMemWords   = 10
	mixPushBase   = 7 // first word of the PUSH area; Ptr starts here
	mixTCAMFill   = 64
	mixL3Prefixes = 256
)

// Packet-memory layout of a tpp_write_mix3 program.
const (
	mixWMask  = 0 // CEXEC mask
	mixWValue = 1 // CEXEC value
	mixWCond  = 2 // CSTORE compare value
	mixWSrc   = 3 // CSTORE new value
	mixWOld   = 4 // CSTORE echoes the old value here
	mixWStore = 5 // STORE source
	mixWLoad  = 6 // LOAD destination
)

type pktMode uint8

const (
	modeFwd pktMode = iota
	modeRead
	modeMix
)

// seqEntry is one packet's seeded inputs.
type seqEntry struct {
	sport, dport uint16
	prog         uint16 // tpp_write_mix3 program index
	oob          bool   // address outside the tenant's grant
	stale        bool   // CSTORE carries a compare value that cannot match
}

func makeSeq(seed int64) []seqEntry {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]seqEntry, seqLen)
	for i := range seq {
		e := &seq[i]
		// Ports stay clear of the prober's echo port, which hosts answer.
		e.sport = uint16(10000 + rng.Intn(50000))
		e.dport = uint16(10000 + rng.Intn(50000))
		if rng.Intn(5) == 0 {
			e.prog = uint16(rng.Intn(mixPrograms))
		} else {
			e.prog = uint16(rng.Intn(mixHot))
		}
		e.oob = rng.Intn(16) == 0
		e.stale = rng.Intn(4) == 0
	}
	return seq
}

// pktInst is a set-up line network plus the driver state that generates
// and checks its packets.
type pktInst struct {
	w    *workload
	mode pktMode

	sim   *netsim.Sim
	net   *topo.Network
	sws   []*asic.Switch
	ids   []uint32 // switch ids in path order
	src   *endhost.Host
	dst   *endhost.Host
	reg   *obs.Registry
	trace *obs.Tracer

	seq   []seqEntry
	pkts  []*core.Packet // the batch being sent
	rx    []*core.Packet // what dst received this batch
	stray int            // frames that reached the wrong host
	dig   *digest        // non-nil during warm-up

	readIns []core.Instruction
	// tpp_write_mix3: in-grant and out-of-grant variants of each
	// program, and the CSTORE counter each program's word holds as of
	// the last packet generated / checked.
	mixIns   [2][mixPrograms][]core.Instruction
	genCount [mixPrograms]uint32
	chkCount [mixPrograms]uint32

	c counts
}

// newPktInst builds H0 — S0 — … — S(k-1) — H1 with one switch per entry
// of kinds (a kind selects the switch's configuration and tables),
// builds the workload's programs and primes L2.  Layer probes call it
// with a single kind to get one hop of the workload in isolation.
func newPktInst(w *workload, seed int64, kinds []int, tr *tracer) *pktInst {
	p := &pktInst{w: w, mode: w.pkt.mode, seq: makeSeq(seed)}
	if w.pkt.obs {
		p.reg = obs.NewRegistry()
		p.trace = obs.NewTracer(1 << 20)
	}
	tr.do("topo.build", func() { p.buildTopo(seed, kinds) })
	tr.do("program.build", p.buildPrograms)
	tr.do("prime", func() { p.net.PrimeL2(netsim.Millisecond) })
	p.dst.HandleDefault(func(pkt *core.Packet) { p.rx = append(p.rx, pkt) })
	p.src.HandleDefault(func(*core.Packet) { p.stray++ })
	p.pkts = make([]*core.Packet, w.batch)
	p.rx = make([]*core.Packet, 0, w.batch)
	p.dig = newDigest()
	return p
}

func (p *pktInst) switchConfig(kind int) asic.Config {
	c := asic.Config{Metrics: p.reg, Trace: p.trace}
	if p.mode == modeMix {
		c.Guard = true
		if kind == 1 {
			// The NIC compiles under the default limit, so its attached
			// program does not match this device and the switch's own
			// ingress cache serves.
			c.TCPU.MaxInstructions = 8
		}
	}
	return c
}

func (p *pktInst) buildTopo(seed int64, kinds []int) {
	p.sim = netsim.New(seed)
	p.net = topo.NewNetwork(p.sim)
	if p.trace != nil {
		p.net.SetTrace(p.trace)
	}
	link := topo.Mbps(100_000, 0)
	out := make([]int, len(kinds)) // egress port toward dst, per switch
	for _, k := range kinds {
		sw := p.net.AddSwitch(p.switchConfig(k))
		p.sws = append(p.sws, sw)
		p.ids = append(p.ids, sw.ID())
	}
	for i := 0; i+1 < len(p.sws); i++ {
		out[i], _ = p.net.LinkSwitches(p.sws[i], p.sws[i+1], link)
	}
	p.src, p.dst = p.net.AddHost(), p.net.AddHost()
	p.net.LinkHost(p.src, p.sws[0], link)
	out[len(out)-1] = p.net.LinkHost(p.dst, p.sws[len(p.sws)-1], link)
	p.src.NIC.SetCapacity(p.w.batch)
	if p.mode == modeMix {
		for i, k := range kinds {
			p.populateMix(k, p.sws[i], out[i])
		}
	}
}

// populateMix grants the tenants and fills the lookup table the kind
// forwards by: kind 0 by TCAM, kind 1 by L3, kind 2 by learned L2.
func (p *pktInst) populateMix(kind int, sw *asic.Switch, out int) {
	for t := 1; t <= mixTenants; t++ {
		if _, err := sw.GrantTenant(guard.TenantID(t), guard.DefaultACL(), mixGrantWords, 1, 0); err != nil {
			panic(fmt.Sprintf("tppbench: granting tenant %d: %v", t, err))
		}
	}
	switch kind {
	case 0:
		fillMixTCAM(sw.TCAM(), p.dst.IP, out)
	case 1:
		fillMixL3(sw.L3(), p.dst.IP, out)
	}
}

// fillMixTCAM installs tpp_write_mix3's rule set: filler rules that
// never match, then the route to dst at the lowest priority so a lookup
// walks every filler first.
func fillMixTCAM(t *tcam.Table, dst uint32, out int) {
	for i := 0; i < mixTCAMFill; i++ {
		v, m := tcam.DstIPRule(core.IPv4Addr(172, 16, 0, byte(i)))
		t.Insert(10, v, m, tcam.Action{OutPort: out})
	}
	v, m := tcam.DstIPRule(dst)
	t.Insert(1, v, m, tcam.Action{OutPort: out})
}

// fillMixL3 installs tpp_write_mix3's prefixes: fillers plus dst's /24.
func fillMixL3(t *l3.Table, dst uint32, out int) {
	for i := 0; i < mixL3Prefixes-1; i++ {
		if err := t.Insert(core.IPv4Addr(172, 16, byte(i), 0), 24, l3.Route{OutPort: out}); err != nil {
			panic(fmt.Sprintf("tppbench: filler prefix: %v", err))
		}
	}
	if err := t.Insert(dst&^0xFF, 24, l3.Route{OutPort: out}); err != nil {
		panic(fmt.Sprintf("tppbench: route to dst: %v", err))
	}
}

// readStats is the tpp_read_line5 per-hop record.
var readStats = []mem.Addr{
	mem.SwitchBase + mem.SwitchID,
	mem.QueueBase + mem.QueueBytes,
	mem.PortBase + mem.PortTXUtil,
	mem.SwitchBase + mem.SwitchEpoch,
	mem.PortBase + mem.PortEnqBytes,
}

// readSource is the same program in assembly; set-up assembles it and
// checks it against the CollectProgram form, so the assembler is on the
// set-up path the way a user's tooling would put it.
const readSource = `.mem 25
PUSH [Switch:SwitchID]
PUSH [Queue:QueueSize]
PUSH [Link:TX-Utilization]
PUSH [Switch:Epoch]
PUSH [Link:Enq-Bytes]
`

// buildPrograms assembles, verifies and compiles the workload's
// programs the way an end-host toolchain would before first send.
func (p *pktInst) buildPrograms() {
	switch p.mode {
	case modeRead:
		t, err := endhost.CollectProgram(readStats, readHops, tcpu.DefaultMaxInstructions)
		if err != nil {
			panic(fmt.Sprintf("tppbench: collect program: %v", err))
		}
		a, err := asm.Assemble(readSource)
		if err != nil {
			panic(fmt.Sprintf("tppbench: assembling read program: %v", err))
		}
		for i, in := range t.Ins {
			if a.TPP.Ins[i] != in {
				panic("tppbench: assembled read program differs from CollectProgram")
			}
		}
		if res := verify.Verify(t, verify.Config{}); !res.OK() {
			panic(fmt.Sprintf("tppbench: read program rejected: %v", res))
		}
		tcpu.Compile(tcpu.Config{}, t)
		p.readIns = t.Ins
	case modeMix:
		for i := 0; i < mixPrograms; i++ {
			grant, ok := p.sws[0].Guard().Lookup(mixTenant(i))
			if !ok {
				panic("tppbench: tenant not granted")
			}
			for v := 0; v < 2; v++ {
				ins := mixProgram(i, v == 1)
				p.mixIns[v][i] = ins
				t := core.NewTPP(core.AddrStack, ins, mixMemWords)
				t.Ptr = mixPushBase * 4
				res := verify.Verify(t, verify.Config{Grant: &grant})
				if res.OK() != (v == 0) {
					panic(fmt.Sprintf("tppbench: program %d variant %d: verifier says %v", i, v, res))
				}
				tcpu.Compile(tcpu.Config{}, t)
			}
		}
	}
}

func mixTenant(prog int) guard.TenantID { return guard.TenantID(1 + prog%mixTenants) }

// mixGated reports whether the program's CEXEC admits only the middle
// switch.
func mixGated(prog int) bool { return prog%8 == 7 }

// mixProgram is program i of tpp_write_mix3: record the switch id, gate
// on it, then write, conditionally write and read back the program's
// own two words of its tenant's SRAM partition.
func mixProgram(i int, oob bool) []core.Instruction {
	word := uint16(mem.SRAMBase) + uint16(i/mixTenants)*2
	if oob {
		word += mixOOBOffset
	}
	swID := uint16(mem.SwitchBase + mem.SwitchID)
	return []core.Instruction{
		{Op: core.OpPUSH, A: swID},
		{Op: core.OpCEXEC, A: swID, B: mixWMask},
		{Op: core.OpSTORE, A: word, B: mixWStore},
		{Op: core.OpCSTORE, A: word + 1, B: mixWCond},
		{Op: core.OpLOAD, A: word, B: mixWLoad},
	}
}

// gen builds packet n of the run.
func (p *pktInst) gen(n int) *core.Packet {
	e := &p.seq[n&(seqLen-1)]
	pkt := p.src.NewPacket(p.dst.MAC, p.dst.IP, e.sport, e.dport, minPayload)
	switch p.mode {
	case modeRead:
		pkt.TPP = core.NewTPP(core.AddrStack, p.readIns, readMemWords)
		pkt.Eth.Type = core.EtherTypeTPP
	case modeMix:
		v := 0
		if e.oob {
			v = 1
		}
		t := core.NewTPP(core.AddrStack, p.mixIns[v][e.prog], mixMemWords)
		t.Ptr = mixPushBase * 4
		if mixGated(int(e.prog)) {
			t.SetWord(mixWMask, ^uint32(0))
			t.SetWord(mixWValue, p.ids[len(p.ids)/2])
		}
		cur := p.genCount[e.prog]
		cond := cur
		if e.stale {
			cond ^= 1 << 31
		}
		t.SetWord(mixWCond, cond)
		t.SetWord(mixWSrc, cur+1)
		t.SetWord(mixWStore, uint32(n)+1)
		if !e.oob && !e.stale {
			p.genCount[e.prog]++
		}
		pkt.TPP = t
		pkt.Eth.Type = core.EtherTypeTPP
	}
	return pkt
}

// check verifies packet n as dst received it: right flow, and TPP
// memory holding exactly the per-hop record the model predicts.
func (p *pktInst) check(n int, pkt *core.Packet) bool {
	e := &p.seq[n&(seqLen-1)]
	if pkt.UDP == nil || pkt.UDP.SrcPort != e.sport || pkt.UDP.DstPort != e.dport {
		return false
	}
	t := pkt.TPP
	switch p.mode {
	case modeFwd:
		return t == nil
	case modeRead:
		if t == nil || t.Flags != 0 || int(t.Ptr) != 4*len(readStats)*len(p.ids) {
			return false
		}
		for h, id := range p.ids {
			if t.Word(5*h) != id || t.Word(5*h+3) != 0 {
				return false
			}
		}
	case modeMix:
		if t == nil || int(t.Ptr) != 4*(mixPushBase+len(p.ids)) {
			return false
		}
		for h, id := range p.ids {
			if t.Word(mixPushBase+h) != id {
				return false
			}
		}
		if e.oob {
			p.c.faulted++
			return t.Flags == core.FlagAccessFault &&
				t.Word(mixWLoad) == guard.Poison && t.Word(mixWOld) == guard.Poison
		}
		old := p.chkCount[e.prog]
		if !e.stale {
			p.chkCount[e.prog]++
		}
		return t.Flags == 0 && t.Word(mixWLoad) == uint32(n)+1 && t.Word(mixWOld) == old
	}
	return true
}

// step runs one closed-loop batch: build, send, drain, collect.
func (p *pktInst) step(i int, tr *tracer) int {
	var t [5]time.Time
	base := i * p.w.batch
	if tr != nil {
		t[0] = time.Now()
	}
	for k := range p.pkts {
		p.pkts[k] = p.gen(base + k)
	}
	if tr != nil {
		t[1] = time.Now()
	}
	for k, pkt := range p.pkts {
		if p.mode == modeMix {
			prog := int(p.seq[(base+k)&(seqLen-1)].prog)
			p.src.NIC.SetTenant(uint8(mixTenant(prog)))
			hops := len(p.ids)
			if mixGated(prog) {
				hops = 1
			}
			p.c.cstoresSent += uint64(hops)
		}
		p.src.Send(pkt)
	}
	p.c.pendingInject += uint64(p.sim.Pending())
	if tr != nil {
		t[2] = time.Now()
	}
	p.sim.RunUntil(p.sim.Now() + batchSim)
	if tr != nil {
		t[3] = time.Now()
	}
	failed := p.w.batch - len(p.rx) // undelivered
	if failed < 0 {
		failed = p.w.batch // duplicates: nothing about the batch can be trusted
	} else {
		for k, pkt := range p.rx {
			if !p.check(base+k, pkt) {
				failed++
			} else if p.dig != nil && pkt.TPP != nil {
				p.dig.tpp(pkt.TPP)
			}
		}
	}
	failed += p.stray
	p.stray = 0
	clear(p.rx)
	p.rx = p.rx[:0]
	p.c.pkts += uint64(p.w.batch)
	p.c.batches++
	if tr != nil {
		t[4] = time.Now()
		tr.batchPhases(t)
	}
	return failed
}

func (p *pktInst) endWarmup() string {
	p.dig.network(p.sim, p.sws, p.net.Hosts)
	s := p.dig.String()
	p.dig = nil
	return s
}

func (p *pktInst) counts() counts {
	c := p.c
	for _, sw := range p.sws {
		c.switched += sw.PacketsSwitched()
		c.tppsExecuted += sw.TPPsExecuted()
		c.tppsDenied += sw.TPPsDenied()
		c.tppsThrottled += sw.TPPsThrottled()
		c.tppsStripped += sw.TPPsStripped()
		c.cstoreCommits += sw.CStoreCommits()
		for i := 0; i < sw.Ports(); i++ {
			c.dropBytes += sw.Port(i).DropBytes()
		}
		h, m := sw.ProgCacheStats()
		c.cacheHits += h
		c.cacheMisses += m
	}
	c.nicDrops = p.src.NIC.Drops
	c.nicRejected = p.src.NIC.Rejected
	if p.trace != nil {
		c.spans = p.trace.Total()
		c.spansDropped = p.trace.Dropped()
	}
	return c
}

// ---- sweeps ----

// sweepInst runs one whole experiment per step, seeded seed+i.
type sweepInst struct {
	seed int64
	run  func(s *sweepInst, seed int64) bool
	dig  *digest
	c    counts
}

func (s *sweepInst) step(i int, _ *tracer) int {
	if s.run(s, s.seed+int64(i)) {
		return 0
	}
	return 1
}

func (s *sweepInst) endWarmup() string {
	d := s.dig.String()
	s.dig = nil
	return d
}

func (s *sweepInst) counts() counts { return s.c }

// fig2Tolerance is how far the last-third mean R/C may sit from the
// three-flow fair share of 1/3.
const fig2Tolerance = 0.025

func runFig2(s *sweepInst, seed int64) bool {
	cfg := rcp.DefaultFig2Config(rcp.VariantStar)
	cfg.Seed = seed
	res := rcp.RunFigure2(cfg)
	if s.dig != nil {
		for _, sm := range res.Samples {
			s.dig.u64(math.Float64bits(sm.T))
			s.dig.u64(math.Float64bits(sm.ROverC))
			for _, f := range sm.Flows {
				s.dig.u64(math.Float64bits(f))
			}
		}
	}
	dur := cfg.Duration.Seconds()
	return math.Abs(res.MeanROverC(dur*2/3, dur)-1.0/3) <= fig2Tolerance
}

func runChaos(s *sweepInst, seed int64) bool {
	res := chaos.Run(chaos.Default(seed))
	if s.dig != nil {
		s.dig.bytes([]byte(fmt.Sprintf("%+v", res)))
	}
	return res.Leaked == 0 && res.Scenario.OK() && res.SpansDropped == 0
}
