package netsim

import (
	"math"
	"testing"
)

// TestGilbertElliottDwellTimes drives the bursty loss model for many
// frames under a fixed seed and checks the empirical statistics against
// the configured chain: dwell times in each state are geometric, so the
// mean good dwell must approach 1/PGoodBad and the mean bad dwell
// 1/PBadGood; per-state loss rates must approach LossGood and LossBad.
// Deterministic by seed — the tolerances have slack for finite-sample
// noise, not for flaky randomness.
func TestGilbertElliottDwellTimes(t *testing.T) {
	const (
		pGoodBad = 0.05 // mean good dwell 20 frames
		pBadGood = 0.25 // mean bad dwell 4 frames
		lossGood = 0.01
		lossBad  = 0.6
		frames   = 500_000
	)
	g := NewGilbertElliott(pGoodBad, pBadGood, lossGood, lossBad, 1234)

	var (
		dwell                 = 0
		goodDwells, badDwells []int
		lostGood, nGood       int
		lostBad, nBad         int
	)
	prevBad := g.bad
	for i := 0; i < frames; i++ {
		lost := g.Lost()
		// Lost() first advances the chain, then samples the *current*
		// state's loss probability: attribute the sample to the state
		// after the step.
		if g.bad {
			nBad++
			if lost {
				lostBad++
			}
		} else {
			nGood++
			if lost {
				lostGood++
			}
		}
		if g.bad == prevBad {
			dwell++
			continue
		}
		if prevBad {
			badDwells = append(badDwells, dwell)
		} else {
			goodDwells = append(goodDwells, dwell)
		}
		prevBad = g.bad
		dwell = 1
	}

	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	within := func(got, want, tol float64) bool {
		return math.Abs(got-want) <= tol*want
	}

	if len(goodDwells) < 1000 || len(badDwells) < 1000 {
		t.Fatalf("too few dwell episodes (good=%d bad=%d) for statistics",
			len(goodDwells), len(badDwells))
	}
	if got := mean(goodDwells); !within(got, 1/pGoodBad, 0.05) {
		t.Errorf("mean good dwell = %.2f frames, want %.2f +-5%%", got, 1/pGoodBad)
	}
	if got := mean(badDwells); !within(got, 1/pBadGood, 0.05) {
		t.Errorf("mean bad dwell = %.2f frames, want %.2f +-5%%", got, 1/pBadGood)
	}
	if got := float64(lostGood) / float64(nGood); !within(got, lossGood, 0.15) {
		t.Errorf("good-state loss rate = %.4f, want %.4f +-15%%", got, lossGood)
	}
	if got := float64(lostBad) / float64(nBad); !within(got, lossBad, 0.05) {
		t.Errorf("bad-state loss rate = %.4f, want %.4f +-5%%", got, lossBad)
	}

	// The long-run fraction of time spent bad is the chain's stationary
	// distribution: pGoodBad / (pGoodBad + pBadGood).
	wantBad := pGoodBad / (pGoodBad + pBadGood)
	if got := float64(nBad) / float64(frames); !within(got, wantBad, 0.05) {
		t.Errorf("stationary bad fraction = %.4f, want %.4f +-5%%", got, wantBad)
	}

	// Same seed, same trajectory: the model must be replayable.
	g2 := NewGilbertElliott(pGoodBad, pBadGood, lossGood, lossBad, 1234)
	g3 := NewGilbertElliott(pGoodBad, pBadGood, lossGood, lossBad, 1234)
	for i := 0; i < 10_000; i++ {
		if g2.Lost() != g3.Lost() {
			t.Fatalf("same-seed models diverged at frame %d", i)
		}
	}
}
