package netsim

import (
	"fmt"
	"math/rand"
)

// LossModel decides, frame by frame, whether a transmission is
// corrupted in flight.  Models own their random source so loss
// patterns replay exactly for a given seed regardless of what else the
// simulation draws from the shared rng.
type LossModel interface {
	// Lost reports whether the next frame is corrupted.  Called once
	// per frame, in transmission order.
	Lost() bool
}

// GilbertElliott is the classic two-state bursty loss model: the
// channel flips between a Good and a Bad state with per-frame
// transition probabilities, and each state drops frames with its own
// probability.  Long stays in the Bad state produce the loss bursts
// that independent per-frame loss cannot, which is what makes probe
// retry (rather than per-interval resampling) necessary at the end
// host.  With pGoodBad == pBadGood == 0 the channel stays Good, and
// lossGood == lossBad == p drops each frame independently with
// probability p; p == 1 is a blackout.
type GilbertElliott struct {
	pGoodBad float64 // P(good -> bad) per frame
	pBadGood float64 // P(bad -> good) per frame
	lossGood float64 // drop probability while good
	lossBad  float64 // drop probability while bad
	bad      bool
	rnd      *rand.Rand
}

// NewGilbertElliott builds the bursty model.  All four probabilities
// must lie in [0, 1]; the channel starts in the Good state.
func NewGilbertElliott(pGoodBad, pBadGood, lossGood, lossBad float64, seed int64) *GilbertElliott {
	for _, p := range []float64{pGoodBad, pBadGood, lossGood, lossBad} {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("netsim: Gilbert-Elliott probability %v out of [0,1]", p))
		}
	}
	return &GilbertElliott{
		pGoodBad: pGoodBad, pBadGood: pBadGood,
		lossGood: lossGood, lossBad: lossBad,
		rnd: rand.New(rand.NewSource(seed)),
	}
}

// Lost implements LossModel: advance the state machine one frame, then
// sample the current state's drop probability.
func (g *GilbertElliott) Lost() bool {
	if g.bad {
		if g.rnd.Float64() < g.pBadGood {
			g.bad = false
		}
	} else {
		if g.rnd.Float64() < g.pGoodBad {
			g.bad = true
		}
	}
	p := g.lossGood
	if g.bad {
		p = g.lossBad
	}
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	}
	return g.rnd.Float64() < p
}
