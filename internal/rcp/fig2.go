package rcp

import (
	"repro/internal/netsim"
	"repro/internal/obs"
)

// Fig2Config parameterizes the Figure 2 experiment: "a 10Mb/s
// bottleneck link shared by three flows ... one flow each at t=0s,
// t=10s and t=20s".
type Fig2Config struct {
	Variant     Variant
	Duration    netsim.Time
	FlowStarts  []netsim.Time
	SampleEvery netsim.Time
	Seed        int64
	// Metrics, when non-nil, registers the switches' dataplane metrics
	// and each controller's control-loop metrics (rcp/flow<i>/...).
	Metrics *obs.Registry
}

// The Figure 2 schedule, which the comparison runs too: 30 s, one flow
// joining at each of t=0s, t=10s and t=20s.
const fig2Duration = 30 * netsim.Second

func fig2FlowStarts() []netsim.Time {
	return []netsim.Time{0, 10 * netsim.Second, 20 * netsim.Second}
}

// DefaultFig2Config returns the paper's setup.
func DefaultFig2Config(v Variant) Fig2Config {
	return Fig2Config{
		Variant:     v,
		Duration:    fig2Duration,
		FlowStarts:  fig2FlowStarts(),
		SampleEvery: 100 * netsim.Millisecond,
		Seed:        1,
	}
}

// Fig2Sample is one point of the Figure 2 series.
type Fig2Sample struct {
	T      float64   // seconds
	ROverC float64   // fair-share rate R(t) normalized by capacity
	Flows  []float64 // per-flow goodput over the last sample window, bytes/sec
}

// Fig2Result is a full run.
type Fig2Result struct {
	Config  Fig2Config
	Samples []Fig2Sample
}

// RunFigure2 executes one Figure 2 run and returns the R(t)/C series:
// the harness plus a sampler of the advertised fair share and of each
// flow's goodput.
func RunFigure2(cfg Fig2Config) Fig2Result {
	return runFigure2(NewHarness(len(cfg.FlowStarts), cfg.Seed, cfg.Metrics), cfg)
}

// runFigure2 runs Figure 2 on a harness NewHarness has just built for
// cfg, before anything has been scheduled on it: a robustness test
// makes its bottleneck lossy, or plans faults on it, first.
func runFigure2(h *Harness, cfg Fig2Config) Fig2Result {
	scheme := SchemeFor(cfg.Variant)
	start := h.Launch(scheme, Staggered(cfg.FlowStarts))

	// The sampler fires every SampleEvery up to and including the end of
	// the run, so the series is sized once and every Flows row is a
	// window of one backing array, capped so that appending to one row
	// cannot write into the next.
	flows := len(h.Recv)
	ticks := 0
	if cfg.SampleEvery > 0 {
		ticks = max(0, int(cfg.Duration/cfg.SampleEvery))
	}
	result := Fig2Result{Config: cfg, Samples: make([]Fig2Sample, 0, ticks)}
	rows := make([]float64, ticks*flows)
	lastBytes := make([]uint64, flows)
	h.Sim.Every(start+cfg.SampleEvery, cfg.SampleEvery, func() {
		s := Fig2Sample{
			T:      (h.Sim.Now() - start).Seconds(),
			ROverC: scheme.FairShare() / h.Capacity,
			Flows:  rows[:0:flows],
		}
		rows = rows[flows:]
		for i, n := range h.Recv {
			s.Flows = append(s.Flows,
				float64(n-lastBytes[i])/cfg.SampleEvery.Seconds())
			lastBytes[i] = n
		}
		result.Samples = append(result.Samples, s)
	})
	h.Sim.RunUntil(start + cfg.Duration)
	return result
}

// CompareConfig parameterizes the AIMD-vs-RCP* comparison: the Figure 2
// dumbbell at seed 1, identical for every scheme.
type CompareConfig struct {
	Duration   netsim.Time
	FlowStarts []netsim.Time
}

// DefaultCompareConfig runs the Figure 2 schedule.
func DefaultCompareConfig() CompareConfig {
	return CompareConfig{Duration: fig2Duration, FlowStarts: fig2FlowStarts()}
}

// CompareResult summarizes one scheme's run.
type CompareResult struct {
	Scheme Variant
	// FlowGoodput is each flow's goodput over the final five seconds,
	// bytes/sec.
	FlowGoodput []float64
	// JainIndex is Jain's fairness index over FlowGoodput.
	JainIndex float64
	// MeanQueueBytes is the time-averaged bottleneck occupancy.
	MeanQueueBytes float64
	// DropPkts counts bottleneck drops over the whole run.
	DropPkts uint64
	// Utilization is delivered payload over capacity in the final
	// five seconds.
	Utilization float64
}

// RunComparison runs one scheme on the shared scenario: the harness
// plus a bottleneck-queue sampler and a goodput mark five seconds
// before the end.
func RunComparison(scheme Variant, cfg CompareConfig) CompareResult {
	flows := len(cfg.FlowStarts)
	h := NewHarness(flows, 1, nil)
	start := h.Launch(SchemeFor(scheme), Staggered(cfg.FlowStarts))

	var qSum float64
	var qCount int
	bn := h.A.Port(h.APort)
	h.Sim.Every(start+10*netsim.Millisecond, 10*netsim.Millisecond, func() {
		qSum += float64(bn.QueueBytes())
		qCount++
	})
	finalStart := make([]uint64, flows)
	h.Sim.At(start+cfg.Duration-5*netsim.Second, func() { copy(finalStart, h.Recv) })
	h.Sim.RunUntil(start + cfg.Duration)

	res := CompareResult{Scheme: scheme}
	var sum, sumsq float64
	for i := 0; i < flows; i++ {
		g := float64(h.Recv[i]-finalStart[i]) / 5
		res.FlowGoodput = append(res.FlowGoodput, g)
		sum += g
		sumsq += g * g
	}
	if sumsq > 0 {
		res.JainIndex = sum * sum / (float64(flows) * sumsq)
	}
	if qCount > 0 {
		res.MeanQueueBytes = qSum / float64(qCount)
	}
	res.DropPkts = bn.Queue().DropPkts
	res.Utilization = sum / h.Capacity
	return res
}

// MeanROverC averages R(t)/C over the samples with from <= t < to:
// the convergence metric recorded in EXPERIMENTS.md.
func (r Fig2Result) MeanROverC(from, to float64) float64 {
	sum, n := 0.0, 0
	for _, s := range r.Samples {
		if s.T >= from && s.T < to {
			sum += s.ROverC
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ConvergenceTime returns how long after a flow-count change R/C took
// to stay within tol of target (scanning samples in [from, to)); it
// returns to-from when it never settles.
func (r Fig2Result) ConvergenceTime(from, to, target, tol float64) float64 {
	settledAt := to
	settled := false
	for _, s := range r.Samples {
		if s.T < from || s.T >= to {
			continue
		}
		if d := s.ROverC - target; d >= -tol && d <= tol {
			if !settled {
				settled = true
				settledAt = s.T
			}
		} else {
			settled = false
		}
	}
	if !settled {
		return to - from
	}
	return settledAt - from
}
