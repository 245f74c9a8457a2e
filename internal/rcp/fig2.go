package rcp

import (
	"fmt"

	"repro/internal/faults"
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
	// LossRate injects random frame loss on the bottleneck link
	// (both data and probes), for robustness experiments; zero means
	// lossless.
	LossRate float64
	// Faults, when non-nil, is scheduled on an injector with the
	// bottleneck link registered as "bottleneck" (both directions) and
	// the two switches as "a" and "b".  Event times are relative to the
	// run (they are scheduled before PrimeL2 settles, at sim time 0).
	Faults *faults.Plan
	// Metrics, when non-nil, registers the switches' dataplane metrics
	// and each controller's control-loop metrics (rcp/flow<i>/...).
	Metrics *obs.Registry
}

// DefaultFig2Config returns the paper's setup.
func DefaultFig2Config(v Variant) Fig2Config {
	return Fig2Config{
		Variant:     v,
		Duration:    30 * netsim.Second,
		FlowStarts:  []netsim.Time{0, 10 * netsim.Second, 20 * netsim.Second},
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
	scheme := SchemeFor(cfg.Variant)
	h := NewHarness(len(cfg.FlowStarts), cfg.Seed, cfg.Metrics)
	fwd, rev := h.A.Port(h.APort).Channel(), h.B.Port(h.BPort).Channel()
	if cfg.LossRate > 0 {
		fwd.SetLoss(cfg.LossRate, cfg.Seed+100)
	}
	if cfg.Faults != nil {
		inj := faults.NewInjector(h.Sim, nil)
		inj.RegisterLink("bottleneck", fwd, rev)
		inj.RegisterSwitch("a", h.A)
		inj.RegisterSwitch("b", h.B)
		if err := inj.Schedule(*cfg.Faults); err != nil {
			panic(fmt.Sprintf("rcp: bad fault plan: %v", err))
		}
	}
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
