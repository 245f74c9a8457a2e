package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/asic"
	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/fabric"
	"repro/internal/fabric/scenario"
	"repro/internal/l2"
	"repro/internal/l3"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rcp"
	"repro/internal/reflex"
	"repro/internal/tcam"
	"repro/internal/tcpu"
	"repro/internal/topo"
	"repro/internal/verify"
)

const (
	// probeIters is the iteration count of each tight-loop probe, split
	// into probeRounds rounds whose median per-iteration time is
	// reported, so one preempted round does not move the number.
	probeIters  = 200_000
	probeRounds = 5
	// expRuns is how many whole-experiment runs back each *_run_ms.
	expRuns = 3
)

// perIter times fn(n) over probeRounds rounds of n iterations each and
// returns the median nanoseconds per iteration.
func perIter(fn func(n int)) float64 {
	runtime.GC() // start every probe from the same collector state
	n := probeIters / probeRounds
	per := make([]float64, probeRounds)
	for r := range per {
		start := time.Now()
		fn(n)
		per[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// medianMs runs fn expRuns times and returns the median wall time in ms.
func medianMs(fn func()) float64 {
	ms := make([]float64, expRuns)
	for i := range ms {
		start := time.Now()
		fn()
		ms[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return median(ms)
}

type nopDelivery struct{}

func (nopDelivery) DeliverAt(*core.Packet, uint64) {}

type nopReceiver struct{}

func (nopReceiver) Receive(*core.Packet, int) {}

// probeEvent times one schedule-and-pop of the event queue held at a
// steady depth: a packet event with a no-op delivery, or a closure.
func probeEvent(depth int, closure bool) float64 {
	sim := netsim.New(1)
	fn := func() {}
	sched := func(at netsim.Time) {
		if closure {
			sim.At(at, fn)
		} else {
			sim.AtPacket(at, nopDelivery{}, nil, 0)
		}
	}
	for i := 1; i <= depth; i++ {
		sched(netsim.Time(i))
	}
	return perIter(func(n int) {
		for i := 0; i < n; i++ {
			sched(sim.Now() + netsim.Time(depth) + 1)
			sim.RunUntil(sim.Now() + 1)
		}
	})
}

// runProbes times each layer's public calls in isolation.  Packet
// shapes, programs and table sizes come from the workload under test;
// a sweep, which has no packet shape of its own, borrows
// tpp_read_line5's, and a workload without programs borrows its program.
func runProbes(w *workload, seed int64, m map[string]float64) {
	shapeW := w
	if w.pkt == nil {
		shapeW = findWorkload("tpp_read_line5")
	}
	progW := shapeW
	if progW.pkt.mode == modeFwd {
		progW = findWorkload("tpp_read_line5")
	}
	full := newPktInst(shapeW, seed, shapeW.pkt.kinds, nil)
	prog := full
	if progW != shapeW {
		prog = newPktInst(progW, seed, progW.pkt.kinds[:1], nil)
	}

	// netsim: the event queue at fixed depths and at this workload's own
	// peak depth, then one channel transmission net of its event.
	peak := probePendingPeak(shapeW, seed)
	e1 := probeEvent(1, false)
	ePeak := probeEvent(peak, false)
	m["netsim.pending_peak"] = float64(peak)
	m["netsim.event_ns_d64"] = probeEvent(64, false)
	m["netsim.event_ns_d4096"] = probeEvent(4096, false)
	m["netsim.event_ns_peak"] = ePeak
	m["netsim.closure_event_ns"] = probeEvent(64, true)
	chSend := probeChannel(full.gen(0)) - e1
	m["netsim.channel_send_ns"] = chSend

	// core and endhost, on the workload's packet.
	probeCore(prog, full, m)
	recv := probeReceive(full)
	m["endhost.receive_ns"] = recv
	m["endhost.nic_send_ns"] = probeNIC(full) - chSend - e1

	// asic: one hop of the workload, per distinct kind, fed directly in
	// bursts; net of its two events (at burst depth), its channel send
	// and the host's receive.
	hops := len(shapeW.pkt.kinds)
	transit := func(bare bool) float64 {
		sum := 0.0
		byKind := map[int]float64{}
		for _, k := range shapeW.pkt.kinds {
			if _, done := byKind[k]; !done {
				byKind[k] = probeTransit(shapeW, seed, k, bare)
			}
			sum += byKind[k]
		}
		return sum/float64(hops) - 2*m["netsim.event_ns_d64"] - chSend - recv
	}
	m["asic.switch_ns_bare"] = transit(true)
	m["asic.switch_ns_tpp"] = transit(shapeW.pkt.mode == modeFwd)
	m["asic.queue_enq_deq_ns"] = probeQueue(full.gen(0))
	probeLookups(full, m)

	probeTCPU(prog, m)
	probeGuard(seed, m)
	probeObs(seed, m)
	probeExperiments(seed, m)
	probeFabric(seed, m)

	// What the probes account for of a packet's time inside
	// Sim.RunUntil: every hop's switch work, every link's transmission,
	// every event at the workload's heap depth, and the final receive.
	if run := m["driver.run_ns_per_pkt"]; run > 0 {
		attributed := float64(2*hops+1)*ePeak + float64(hops+1)*chSend +
			float64(hops)*m["asic.switch_ns_tpp"] + recv
		m["driver.unattributed_share"] = 1 - attributed/run
	}
}

// probePendingPeak injects one batch and steps the simulator in 100 ns
// slices until it drains, returning the deepest the event queue got.
func probePendingPeak(w *workload, seed int64) int {
	p := newPktInst(w, seed, w.pkt.kinds, nil)
	for k := 0; k < w.batch; k++ {
		p.src.Send(p.gen(k))
	}
	peak := p.sim.Pending()
	for end := p.sim.Now() + batchSim; len(p.rx) < w.batch && p.sim.Now() < end; {
		p.sim.RunUntil(p.sim.Now() + 100*netsim.Nanosecond)
		if n := p.sim.Pending(); n > peak {
			peak = n
		}
	}
	return peak
}

// probeChannel times Channel.Send plus the arrival it schedules, with
// an empty event queue.
func probeChannel(pkt *core.Packet) float64 {
	sim := netsim.New(1)
	ch := netsim.NewChannel(sim, 100e9, 0, nopReceiver{}, 0)
	return perIter(func(n int) {
		for i := 0; i < n; i++ {
			ch.Send(pkt)
			sim.RunUntil(sim.Now() + netsim.Microsecond)
		}
	})
}

func probeCore(prog, full *pktInst, m map[string]float64) {
	pkt := full.gen(0)
	m["core.clone_recycle_ns"] = perIter(func(n int) {
		for i := 0; i < n; i++ {
			pkt.ClonePooled().Recycle()
		}
	})
	t := prog.gen(0).TPP
	var sink *core.TPP
	m["core.newtpp_ns"] = perIter(func(n int) {
		for i := 0; i < n; i++ {
			sink = core.NewTPP(t.Mode, t.Ins, t.MemWords())
		}
	})
	_ = sink
	wire := t.AppendTo(nil)
	m["core.tpp_serialize_ns"] = perIter(func(n int) {
		for i := 0; i < n; i++ {
			wire = t.AppendTo(wire[:0])
		}
	})
	var parsed core.TPP
	m["core.tpp_parse_ns"] = perIter(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := core.ParseTPP(wire, &parsed); err != nil {
				panic(fmt.Sprintf("tppbench: parsing own TPP: %v", err))
			}
		}
	})
	var psink *core.Packet
	m["endhost.newpacket_ns"] = perIter(func(n int) {
		for i := 0; i < n; i++ {
			psink = full.src.NewPacket(full.dst.MAC, full.dst.IP, 1, 2, minPayload)
		}
	})
	_ = psink
}

// probeBurst is the packets per burst the packet-path probes feed:
// the batch size of the three TPP workloads.
const probeBurst = 64

// perPacket times a packet-path probe the way the workloads run: bursts
// of probeBurst freshly built (cache-warm) packets, each burst fed and
// then drained.  Building and sealing are untimed.  It returns the
// median nanoseconds per packet over probeIters packets' worth of bursts.
func perPacket(p *pktInst, seal func(n int, pkt *core.Packet), feed func(*core.Packet), drain func()) float64 {
	runtime.GC()
	pkts := make([]*core.Packet, probeBurst)
	per := make([]float64, 0, probeIters/probeBurst)
	for from := 0; from < probeIters; from += probeBurst {
		for k := range pkts {
			pkts[k] = p.gen(from + k)
			if seal != nil {
				seal(from+k, pkts[k])
			}
		}
		start := time.Now()
		for _, pkt := range pkts {
			feed(pkt)
		}
		drain()
		per = append(per, float64(time.Since(start).Nanoseconds())/probeBurst)
	}
	return median(per)
}

// probeNIC times NIC.Send (tenant seal, program-cache lookup, queue,
// kick) plus the transmission it starts, into a no-op receiver.
func probeNIC(p *pktInst) float64 {
	sim := netsim.New(1)
	h := endhost.NewHost(sim, p.src.MAC, p.src.IP)
	h.NIC.Attach(netsim.NewChannel(sim, 100e9, 0, nopReceiver{}, 0))
	return perPacket(p, nil,
		func(pkt *core.Packet) { h.Send(pkt) },
		func() { sim.RunUntil(sim.Now() + 10*netsim.Microsecond) })
}

// probeReceive times Host.Receive into the workload's own handler.
func probeReceive(p *pktInst) float64 {
	pkt := p.gen(0)
	return perIter(func(n int) {
		for i := 0; i < n; i++ {
			p.dst.Receive(pkt, 0)
			p.rx = p.rx[:0]
		}
	})
}

// probeTransit times a packet through one switch of the given kind:
// Switch.Receive, the pipeline event, lookup, TCPU, enqueue, the egress
// transmission and its arrival at the destination host.  Packets are
// sealed the way the NIC would have (tenant id, attached compilation)
// without paying for the NIC inside the timed part.
func probeTransit(w *workload, seed int64, kind int, bare bool) float64 {
	p := newPktInst(w, seed, []int{kind}, nil)
	sw, in := p.sws[0], p.net.AttachmentOf(p.src).Port
	nic := tcpu.NewCache(tcpu.Config{}, 0)
	seal := func(n int, pkt *core.Packet) {
		switch {
		case bare:
			pkt.TPP, pkt.Eth.Type = nil, core.EtherTypeIPv4
		case pkt.TPP != nil:
			if p.mode == modeMix {
				pkt.TPP.Tenant = uint8(mixTenant(int(p.seq[n&(seqLen-1)].prog)))
			}
			if c := nic.Get(pkt.TPP); c != nil {
				pkt.TPP.Compiled = c
			}
		}
	}
	return perPacket(p, seal,
		func(pkt *core.Packet) { sw.Receive(pkt, in) },
		func() {
			p.sim.RunUntil(p.sim.Now() + 10*netsim.Microsecond)
			p.rx = p.rx[:0]
		})
}

func probeQueue(pkt *core.Packet) float64 {
	q := asic.NewQueue(1 << 20)
	return perIter(func(n int) {
		for i := 0; i < n; i++ {
			q.Enqueue(pkt)
			q.Dequeue()
		}
	})
}

// probeLookups times the three lookup tables at the sizes
// tpp_write_mix3 fills them to (the only workload that forwards by TCAM
// and L3); L2 holds the two stations every workload's line learns.
func probeLookups(p *pktInst, m map[string]float64) {
	macs := l2.New(0)
	macs.Learn(p.src.MAC, 0, 0)
	macs.Learn(p.dst.MAC, 1, 0)
	m["l2.lookup_ns"] = perIter(func(n int) {
		for i := 0; i < n; i++ {
			macs.Lookup(p.dst.MAC, 0)
		}
	})
	routes, rules := l3.New(), tcam.New()
	fillMixL3(routes, p.dst.IP, 1)
	fillMixTCAM(rules, p.dst.IP, 1)
	m["l3.lookup_ns"] = perIter(func(n int) {
		for i := 0; i < n; i++ {
			routes.Lookup(p.dst.IP)
		}
	})
	key := tcam.Key{tcam.KeyDstIP: p.dst.IP, tcam.KeySrcIP: p.src.IP, tcam.KeyProto: uint32(core.ProtoUDP)}
	m["tcam.match_ns"] = perIter(func(n int) {
		for i := 0; i < n; i++ {
			rules.Match(key)
		}
	})
}

// probeTCPU times the workload's program on the interpreter, compiled,
// through the cache and through the compiler, and replays the
// workload's program sequence through a fresh cache.
func probeTCPU(p *pktInst, m map[string]float64) {
	cfg := tcpu.Config{}
	view := p.sws[0].ViewForTesting(nil, 0)
	t := p.gen(0).TPP
	ptr := t.Ptr
	exec := func(run func() tcpu.Result) float64 {
		return perIter(func(n int) {
			for i := 0; i < n; i++ {
				t.Ptr, t.Flags = ptr, 0
				if r := run(); r.Fault != nil {
					panic(fmt.Sprintf("tppbench: probe program faulted: %v", r.Fault))
				}
			}
		})
	}
	m["tcpu.interp_ns"] = exec(func() tcpu.Result { return cfg.Exec(t, view) })
	compiled := tcpu.Compile(cfg, t)
	m["tcpu.compiled_ns"] = exec(func() tcpu.Result { return compiled.Exec(t, view) })
	cache := tcpu.NewCache(cfg, 0)
	m["tcpu.cache_get_ns"] = perIter(func(n int) {
		for i := 0; i < n; i++ {
			cache.Get(t)
		}
	})
	var sink *tcpu.Program
	m["tcpu.compile_ns"] = perIter(func(n int) {
		for i := 0; i < n; i++ {
			sink = tcpu.Compile(cfg, t)
		}
	})
	_ = sink
	replay := tcpu.NewCache(cfg, 0)
	for n := 0; n < probeIters; n++ {
		replay.Get(p.gen(n).TPP)
	}
	hits, misses := replay.Stats()
	m["tcpu.cache_hit_ratio"] = ratio(hits, hits+misses, 1)

	m["verify.program_ns"] = perIter(func(n int) {
		for i := 0; i < n; i++ {
			verify.Verify(t, verify.Config{})
		}
	})
	m["asm.assemble_ns"] = perIter(func(n int) {
		for i := 0; i < n/10; i++ { // ~10 µs each; a tenth of the iterations is plenty
			if _, err := asm.Assemble(readSource); err != nil {
				panic(fmt.Sprintf("tppbench: %v", err))
			}
		}
	}) * 10
}

// probeGuard times a tpp_write_mix3 program against the guarded view and
// against the raw view of the same switch; the difference is what
// tenant enforcement costs per execution.
func probeGuard(seed int64, m map[string]float64) {
	mix := findWorkload("tpp_write_mix3")
	p := newPktInst(mix, seed, []int{2}, nil)
	t := core.NewTPP(core.AddrStack, p.mixIns[0][0], mixMemWords)
	compiled := tcpu.Compile(tcpu.Config{}, t)
	sw := p.sws[0]
	exec := func(guarded bool) float64 {
		view := sw.ViewForTesting(nil, 0)
		if guarded {
			view = sw.GuardedViewForTesting(nil, 0, mixTenant(0))
		}
		return perIter(func(n int) {
			for i := 0; i < n; i++ {
				t.Ptr, t.Flags = mixPushBase*4, 0
				compiled.Exec(t, view)
			}
		})
	}
	m["guard.checked_exec_overhead_ns"] = exec(true) - exec(false)
}

// probeObs times the telemetry primitives, a snapshot of a 5-switch
// line's registry, and the whole-pipeline price of watching: the same
// short run of tpp_read_line5 with and without metrics and spans.
func probeObs(seed int64, m map[string]float64) {
	tr := obs.NewTracer(obs.DefaultTraceCap)
	m["obs.span_record_ns"] = perIter(func(n int) {
		for i := 0; i < n; i++ {
			tr.Record(obs.SpanEvent{At: int64(i), UID: uint64(i), Node: 1, Stage: obs.StageParser})
		}
	})
	reg := obs.NewRegistry()
	ctr, hist := reg.Counter("probe/counter"), reg.Histogram("probe/hist")
	m["obs.counter_inc_ns"] = perIter(func(n int) {
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
	})
	m["obs.hist_observe_ns"] = perIter(func(n int) {
		for i := 0; i < n; i++ {
			hist.Observe(uint64(i))
		}
	})

	shortP10 := func(name string) (float64, *pktInst) {
		w := findWorkload(name)
		p := newPktInst(w, seed, w.pkt.kinds, nil)
		const steps = 1500
		us := make([]float64, 0, steps)
		for i := 0; i < w.warmup+steps; i++ {
			start := time.Now()
			p.step(i, nil)
			if i >= w.warmup {
				us = append(us, float64(time.Since(start).Nanoseconds()))
			}
		}
		return percentile(sortedCopy(us), 0.1), p
	}
	plain, _ := shortP10("tpp_read_line5")
	watched, p := shortP10("tpp_read_line5_obs")
	m["obs.pipeline_overhead_ratio"] = watched / plain
	m["obs.snapshot_ms"] = medianMs(func() { p.reg.Snapshot(int64(p.sim.Now())) })
}

// probeExperiments times the whole experiments the sweeps are made of,
// and their siblings: both Figure 2 variants and the other two soaks.
func probeExperiments(seed int64, m map[string]float64) {
	fig2 := func(v rcp.Variant) func() {
		return func() {
			cfg := rcp.DefaultFig2Config(v)
			cfg.Seed = seed
			rcp.RunFigure2(cfg)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m["rcp.star_run_ms"] = medianMs(fig2(rcp.VariantStar))
	runtime.ReadMemStats(&ms1)
	simSec := rcp.DefaultFig2Config(rcp.VariantStar).Duration.Seconds() * expRuns
	m["rcp.allocs_per_sim_s"] = float64(ms1.Mallocs-ms0.Mallocs) / simSec
	m["rcp.baseline_run_ms"] = medianMs(fig2(rcp.VariantBaseline))
	m["chaos.hostile_run_ms"] = medianMs(func() { chaos.RunHostile(chaos.DefaultHostile(seed)) })
	m["chaos.reflex_run_ms"] = medianMs(func() { chaos.RunReflexSoak(chaos.DefaultReflexSoak(seed)) })

	res := chaos.Run(chaos.Default(seed))
	var converges, attempts uint64
	for _, ph := range res.Scenario.Phases {
		for _, cv := range ph.Converges {
			converges++
			attempts += uint64(cv.Attempts)
		}
	}
	m["fabric.converge_rounds"] = ratio(attempts, converges, 0)
}

// probeScenario is a scenario document of the size the soaks generate.
const probeScenario = `
name: probe
spec:
  devices:
    - device: leaf0
      tenants:
        - id: 1
          policy: control
          words: 64
          weight: 10
          burst: 16
      services:
        - name: rcp
          words: 8
          seed: [1250000]
      routes:
        - dst: 10.0.0.1
          prio: 100
          port: 1
    - device: spine0
      routes:
        - dst: 10.0.0.1
          prio: 10
          port: 0
phases:
  - name: provision
    kind: provision
    budget: 6
    backoff: 5ms
    bound: 500ms
  - name: storm
    kind: faults
    needs: [provision]
    events:
      - at: 10ms
        kind: switch-reboot
        target: leaf0
        bootdelay: 1ms
  - name: soak
    kind: run
    needs: [storm]
    until: 100ms
  - name: heal
    kind: provision
    needs: [soak]
`

// probeFabric times the controller's three passes over one device,
// flipping between two specs so every diff has mutations to apply; the
// scenario parser on a representative document; and the reflex arm's
// per-packet transit check.
func probeFabric(seed int64, m map[string]float64) {
	sim := netsim.New(seed)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4, Guard: true})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, topo.Mbps(10_000, 0))
	n.LinkHost(h2, sw, topo.Mbps(10_000, 0))
	ctl := fabric.New(sim)
	ctl.Register("edge", sw)
	spec := func(flip int) fabric.Spec {
		return fabric.Spec{Devices: []fabric.DeviceSpec{{
			Device:   "edge",
			Tenants:  []fabric.Tenant{{ID: 3, Policy: fabric.PolicyDefault, Words: 64, Weight: 10, Burst: 16}},
			Services: []fabric.Service{{Name: "rcp", Words: 8, Seed: []uint32{1250000}}},
			Routes: []fabric.Route{
				{DstIP: h2.IP, Priority: 100, OutPort: flip},
				{DstIP: h1.IP, Priority: 90, OutPort: 1 - flip},
			},
		}}}
	}
	const rounds = 400
	var diff, apply, check time.Duration
	for i := 0; i < rounds; i++ {
		s := spec(i % 2)
		t0 := time.Now()
		cs, devErrs, err := ctl.Diff(s)
		t1 := time.Now()
		rep := ctl.Apply(cs)
		t2 := time.Now()
		left := ctl.Verify(s)
		t3 := time.Now()
		if err != nil || len(devErrs) > 0 || !rep.OK() || len(left) > 0 {
			panic(fmt.Sprintf("tppbench: fabric probe off spec: %v %v %v %v", err, devErrs, rep.Errors(), left))
		}
		diff += t1.Sub(t0)
		apply += t2.Sub(t1)
		check += t3.Sub(t2)
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / rounds }
	m["fabric.diff_us"], m["fabric.apply_us"], m["fabric.verify_us"] = us(diff), us(apply), us(check)

	m["scenario.parse_us"] = perIter(func(n int) {
		for i := 0; i < n/100; i++ { // tens of µs each
			if _, err := scenario.Parse(probeScenario, nil); err != nil {
				panic(fmt.Sprintf("tppbench: %v", err))
			}
		}
	}) * 100 / 1e3

	arm, err := reflex.Attach(sim, sw, reflex.Config{})
	if err != nil {
		panic(fmt.Sprintf("tppbench: reflex attach: %v", err))
	}
	if err := arm.Monitor(1, h2.MAC, h2.IP); err != nil {
		panic(fmt.Sprintf("tppbench: reflex monitor: %v", err))
	}
	pkt := h1.NewPacket(h2.MAC, h2.IP, 1, 2, minPayload)
	m["reflex.transit_ns"] = perIter(func(n int) {
		for i := 0; i < n; i++ {
			arm.Transit(pkt, 1)
		}
	})
}
