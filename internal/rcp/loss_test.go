package rcp

import (
	"testing"

	"repro/internal/netsim"
)

// lossyHarness builds cfg's Figure 2 harness with random frame loss p
// on the bottleneck's forward direction (data and probes alike), drawn
// from a source seeded cfg.Seed+100.
func lossyHarness(cfg Fig2Config, p float64) *Harness {
	h := NewHarness(len(cfg.FlowStarts), cfg.Seed, cfg.Metrics)
	h.A.Port(h.APort).Channel().SetLossModel(netsim.NewGilbertElliott(0, 0, p, p, cfg.Seed+100))
	return h
}

// TestFigure2StarSurvivesProbeLoss injects 5% frame loss on the
// bottleneck: probes and updates get dropped, but the controllers
// retry every interval ("a lost update is retried next interval"), so
// convergence still holds within a looser tolerance.
func TestFigure2StarSurvivesProbeLoss(t *testing.T) {
	cfg := DefaultFig2Config(VariantStar)
	res := runFigure2(lossyHarness(cfg, 0.05), cfg)

	want := fairShares()
	windows := [3][2]float64{{5, 10}, {15, 20}, {25, 30}}
	for i, w := range windows {
		got := res.MeanROverC(w[0], w[1])
		if rel := (got - want[i]) / want[i]; rel > 0.35 || rel < -0.35 {
			t.Errorf("lossy plateau %d: mean R/C = %.3f, want ~%.3f", i+1, got, want[i])
		}
	}
}

// TestFigure2StarHeavyLossDegradesGracefully pushes loss to 30%: the
// control loop must neither deadlock nor drive the registers to
// nonsense (rate stays within [floor, capacity]).
func TestFigure2StarHeavyLossDegradesGracefully(t *testing.T) {
	cfg := DefaultFig2Config(VariantStar)
	cfg.Duration = 10_000_000_000 // 10s
	res := runFigure2(lossyHarness(cfg, 0.30), cfg)
	if len(res.Samples) == 0 {
		t.Fatal("no samples")
	}
	for _, s := range res.Samples {
		if s.ROverC < 0 || s.ROverC > 1.01 {
			t.Fatalf("R/C = %.3f at t=%.1f outside [0,1]", s.ROverC, s.T)
		}
	}
	// The single flow should still achieve meaningful goodput.
	last := res.Samples[len(res.Samples)-1]
	if last.Flows[0] <= 0 {
		t.Fatal("flow starved under loss")
	}
}
