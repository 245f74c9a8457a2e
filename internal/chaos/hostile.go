package chaos

import (
	"fmt"

	"repro/internal/asic"
	"repro/internal/endhost"
	"repro/internal/fabric"
	"repro/internal/fabric/scenario"
	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rcp"
	"repro/internal/topo"
	"repro/internal/verify"
)

// Tenant cast of the hostile soak.
const (
	victim1Tenant = guard.TenantID(1) // RCP* flow 1 (control ACL)
	victim2Tenant = guard.TenantID(2) // RCP* flow 2 (control ACL)
	acctTenant    = guard.TenantID(3) // accounting writer + poller
	rogueTenant   = guard.TenantID(9) // the hostile flood
)

// HostileConfig parameterizes the hostile-tenant soak; DefaultHostile
// is the canonical scenario.
type HostileConfig struct {
	Seed     int64
	Duration netsim.Time

	// RoguePPS is the forged-TPP flood rate; RogueFrom is when the
	// rogue wakes up.  The flood runs to the end of the soak.
	RoguePPS  float64
	RogueFrom netsim.Time

	// TPPRate arms the per-tenant weighted admission gate on both
	// switches; the rogue's weighted share is a small fraction of it.
	TPPRate float64

	// ConvergeFrom starts the window whose rate samples must sit at
	// the victims' fair share.
	ConvergeFrom netsim.Time
}

// DefaultHostile is the canonical hostile-tenant scenario: 5 simulated
// seconds, a rogue waking at 500ms and flooding forged write-TPPs at
// 800/s — over 12x its weighted admission share — while two victim
// RCP* flows share a 20 Mb/s bottleneck and a victim accounting pair
// keeps a shared tally on the bottleneck switch.
func DefaultHostile(seed int64) HostileConfig {
	return HostileConfig{
		Seed:     seed,
		Duration: 5 * netsim.Second,
		RoguePPS: 800, RogueFrom: 500 * netsim.Millisecond,
		TPPRate:      2000,
		ConvergeFrom: 3 * netsim.Second,
	}
}

// HostileResult is the soak's observable outcome, plain values only so
// two same-seed runs can be compared wholesale.  Per-switch arrays are
// indexed 0 = the tenants' edge switch, 1 = the far switch.
type HostileResult struct {
	// Scenario is the control-plane outcome: the provision converge
	// that granted the tenant cast on both switches, the flood plan,
	// and the end-of-soak verify that every grant survived intact.
	Scenario scenario.Result

	// Flood bookkeeping.
	RogueSent uint64

	// Denial reconciliation, per switch: the switch counter, the
	// global metric, the rogue's per-tenant metric, the guard-table
	// sum over tenants, and the StageAccessDeny span count must agree
	// exactly.
	Denied            [2]uint64
	DeniedMetric      [2]int64
	RogueDeniedMetric [2]int64
	DeniedTable       [2]uint64
	DeniedSpans       [2]int
	RogueDenied       [2]uint64
	VictimDenied      [2]uint64 // tenants 1, 2 and 3 combined; must be 0

	// Admission: the rogue got throttled, the victims never did, and
	// the per-tenant table sums match the switch counters.
	Throttled       [2]uint64
	ThrottledTable  [2]uint64
	RogueThrottled  [2]uint64
	VictimThrottled [2]uint64

	// Victim convergence: LastRate sampled every 100ms, plus the mean
	// over [ConvergeFrom, Duration).  FairShare is C/2 for the shared
	// bottleneck.
	V1Samples, V2Samples []float64
	V1Mean, V2Mean       float64
	FairShare            float64

	// Victim accounting across the flood.
	Polls           int
	NegativeDeltas  int
	Discontinuities uint64
	WriterDone      uint64 // adds acknowledged by the writer
	WriterFailures  uint64 // adds abandoned after CSTORE conflicts
	FinalTally      uint32 // last value the poller observed
	TallyPhysical   uint32 // the tally word read straight out of SRAM

	// Queue conservation and tracer health.
	Leaked       int64
	SpansDropped uint64
}

// hostileTenants is the per-device tenant cast as spec entries.  The
// spec canonicalizes by tenant ID, so both switches grant in the same
// order (1, 2, 3, 9) and carve identical partitions: one static grant
// describes a program's runtime window on every hop.
func hostileTenants() []fabric.Tenant {
	return []fabric.Tenant{
		{ID: victim1Tenant, Policy: fabric.PolicyControl, Words: 64, Weight: 10, Burst: 16},
		{ID: victim2Tenant, Policy: fabric.PolicyControl, Words: 64, Weight: 10, Burst: 16},
		{ID: acctTenant, Policy: fabric.PolicyDefault, Words: 64, Weight: 10, Burst: 32},
		{ID: rogueTenant, Policy: fabric.PolicyDefault, Words: 64, Weight: 1, Burst: 4},
	}
}

// RunHostile executes the hostile-tenant scenario.
func RunHostile(cfg HostileConfig) HostileResult {
	sim := netsim.New(cfg.Seed)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1 << 19)

	// Two guarded switches around one 20 Mb/s bottleneck.  s0 is the
	// tenants' edge: victims, accounting writer and the rogue all
	// attach there; receivers sit behind s1.  Switch spans only:
	// channels stay untraced.
	edge := topo.Mbps(40, 10*netsim.Microsecond)
	bottleneck := topo.Mbps(20, 10*netsim.Microsecond)
	n := topo.Dumbbell(sim, 4, edge, bottleneck, topo.Uniform(asic.Config{Ports: 8,
		Metrics: reg, Trace: tracer, Guard: true, TPPRate: cfg.TPPRate}), nil)
	s0, s1 := n.A, n.B
	// Victim senders, accounting writer, rogue; then the victims'
	// receivers, the accounting poller and the rogue's sink.
	v1, v2, wr, rg := n.Senders[0], n.Senders[1], n.Senders[2], n.Senders[3]
	d1, d2, pl, rd := n.Receivers[0], n.Receivers[1], n.Receivers[2], n.Receivers[3]
	n.PrimeL2(5 * netsim.Millisecond)

	// The tenant cast arrives as a declarative spec the controller
	// converges during the provision phase — no hand registration.
	fab := fabric.New(sim)
	fab.Register("s0", s0)
	fab.Register("s1", s1)
	spec := fabric.Spec{Devices: []fabric.DeviceSpec{
		{Device: "s0", Tenants: hostileTenants()},
		{Device: "s1", Tenants: hostileTenants()},
	}}
	rcp.InitRateRegisters(s0, s1)

	// The hostile flood is a fault-plan event, like a reboot or a loss
	// window: the rogue wakes at RogueFrom and floods its sink.
	inj := faults.NewInjector(sim, tracer)
	inj.RegisterHost("rogue", rg)
	flood := []faults.Event{{At: cfg.RogueFrom, Kind: faults.RogueTenant, Target: "rogue",
		PPS: cfg.RoguePPS, DstMAC: rd.MAC, DstIP: rd.IP}}

	// Victim workload 1+2: two RCP* flows sharing the bottleneck, so
	// each must converge to C/2.
	ctl1 := rcp.NewStarController(sim, v1, endhost.NewProber(v1), d1.MAC, d1.IP)
	ctl2 := rcp.NewStarController(sim, v2, endhost.NewProber(v2), d2.MAC, d2.IP)

	// Victim workload 3: a shared tally in s1's SRAM (tenant-relative
	// word 16 of the accounting tenant's partition).  Writer and
	// poller approach from opposite sides; both paths transit s1.
	tallyAddr := mem.SRAMBase + 16
	acct := newTally(wr, pl, pl, wr, s1, tallyAddr)

	var res HostileResult
	// Stop adding well before the end so every in-flight CSTORE chain
	// resolves and WriterDone reconciles exactly with the SRAM word.
	addUntil := cfg.Duration - 500*netsim.Millisecond

	env := &scenario.Env{
		Sim:        sim,
		Controller: fab,
		Injector:   inj,
		Spec:       spec,
		Seed:       cfg.Seed,
		Workloads: map[string]scenario.Hook{
			// Seal tenant identities at the trusted edge, and gate every
			// victim NIC with the grant-aware static verifier: a program
			// that passes here must never trip the dynamic guard.  The
			// grants are read back from the switch the provision phase
			// just programmed, not assumed.
			"seal": func(*scenario.Env) error {
				seal := func(h *endhost.Host, id guard.TenantID) error {
					g, ok := s0.Guard().Lookup(id)
					if !ok {
						return fmt.Errorf("tenant %d not provisioned", id)
					}
					h.NIC.SetTenant(uint8(id))
					h.NIC.SetVerifier(&verify.Config{Grant: &g})
					return nil
				}
				for _, pair := range []struct {
					h  *endhost.Host
					id guard.TenantID
				}{{v1, victim1Tenant}, {v2, victim2Tenant}, {wr, acctTenant}, {pl, acctTenant}} {
					if err := seal(pair.h, pair.id); err != nil {
						return err
					}
				}
				// The rogue's edge seals its identity but does not verify
				// — it models a tenant whose programs reach the fabric
				// unchecked.
				rg.NIC.SetTenant(uint8(rogueTenant))
				return nil
			},
			"rcp": func(*scenario.Env) error {
				ctl1.Start()
				ctl2.Start()
				return nil
			},
			"accounting": func(*scenario.Env) error {
				acct.start(sim, addUntil)
				return nil
			},
			// Sample both victims' rates every 100ms.
			"sampling": func(*scenario.Env) error {
				sim.Every(100*netsim.Millisecond, 100*netsim.Millisecond, func() {
					res.V1Samples = append(res.V1Samples, ctl1.LastRate)
					res.V2Samples = append(res.V2Samples, ctl2.LastRate)
				})
				return nil
			},
		},
		// After five seconds of forged-write flood, every grant must
		// still verify field-for-field: the rogue never perturbed the
		// control plane.
		Asserts: map[string]scenario.Hook{"grants-intact": scenario.VerifySpec},
	}
	res.Scenario = scenario.Run(env, scenario.Scenario{
		Name: "hostile-soak",
		Phases: soakPhases("flood", flood,
			[]string{"seal", "rcp", "accounting", "sampling"}, cfg.Duration, "grants-intact"),
	})
	ctl1.Stop()
	ctl2.Stop()

	// Harvest.
	res.FairShare = float64(bottleneck.RateBps) / 8 / 2
	mean := func(samples []float64, from int) float64 {
		if from >= len(samples) {
			return 0
		}
		var sum float64
		for _, s := range samples[from:] {
			sum += s
		}
		return sum / float64(len(samples)-from)
	}
	fromIdx := int(cfg.ConvergeFrom / (100 * netsim.Millisecond))
	res.V1Mean = mean(res.V1Samples, fromIdx)
	res.V2Mean = mean(res.V2Samples, fromIdx)

	res.RogueSent = inj.RogueSent
	snap := reg.Snapshot(int64(sim.Now()))
	for i, sw := range []*asic.Switch{s0, s1} {
		res.Denied[i] = sw.TPPsDenied()
		res.Throttled[i] = sw.TPPsThrottled()
		tbl := sw.Guard()
		for _, id := range tbl.Tenants() {
			res.DeniedTable[i] += tbl.Denied(id)
			res.ThrottledTable[i] += tbl.Throttled(id)
		}
		res.RogueDenied[i] = tbl.Denied(rogueTenant)
		res.RogueThrottled[i] = tbl.Throttled(rogueTenant)
		for _, id := range []guard.TenantID{victim1Tenant, victim2Tenant, acctTenant} {
			res.VictimDenied[i] += tbl.Denied(id)
			res.VictimThrottled[i] += tbl.Throttled(id)
		}
		if m, ok := snap.Get(fmt.Sprintf("switch/%d/tpps_denied", sw.ID())); ok {
			res.DeniedMetric[i] = m.Value
		}
		if m, ok := snap.Get(fmt.Sprintf("switch/%d/tenant/%d/tpps_denied",
			sw.ID(), rogueTenant)); ok {
			res.RogueDeniedMetric[i] = m.Value
		}
	}
	tracer.Each(func(ev *obs.SpanEvent) {
		if ev.Stage != obs.StageAccessDeny {
			return
		}
		switch ev.Node {
		case s0.ID():
			res.DeniedSpans[0]++
		case s1.ID():
			res.DeniedSpans[1]++
		}
	})

	res.Polls, res.NegativeDeltas, res.WriterDone = acct.Polls, acct.NegativeDeltas, acct.WriterDone
	res.WriterFailures = acct.writer.Failures
	res.Discontinuities = acct.poller.Discontinuities()
	res.FinalTally = acct.Last
	// Read the tally straight out of s1's SRAM through the accounting
	// tenant's relocation — the word the writer's CSTOREs landed on.
	if phys, ok := physSRAMAddr(s1, acctTenant, tallyAddr); ok {
		res.TallyPhysical = s1.SRAM(mem.SRAMIndex(phys))
	}

	res.Leaked = leaked(s0, s1)
	res.SpansDropped = tracer.Dropped()
	return res
}

// physSRAMAddr resolves a tenant-relative address to its physical
// SRAM word on the given switch.
func physSRAMAddr(sw *asic.Switch, id guard.TenantID, a mem.Addr) (mem.Addr, bool) {
	g, ok := sw.Guard().Lookup(id)
	if !ok {
		return 0, false
	}
	return g.CheckLoad(a)
}
