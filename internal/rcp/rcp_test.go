package rcp

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/netsim"
)

func TestUpdateEquilibrium(t *testing.T) {
	// At y == C and empty queue the rate is a fixed point.
	c := 1_250_000.0
	r := nextRate(c/2, c, 0, c)
	if math.Abs(r-c/2) > 1 {
		t.Fatalf("fixed point drifted: %f", r)
	}
}

func TestUpdateDirection(t *testing.T) {
	c := 1_250_000.0
	// Overload (y > C) must reduce R.
	if r := nextRate(c, 2*c, 0, c); r >= c {
		t.Fatalf("overload did not reduce R: %f", r)
	}
	// Underload (y < C, empty queue) must increase R.
	if r := nextRate(c/2, c/4, 0, c); r <= c/2 {
		t.Fatalf("underload did not increase R: %f", r)
	}
	// Standing queue must reduce R even at y == C.
	if r := nextRate(c/2, c, 50_000, c); r >= c/2 {
		t.Fatalf("standing queue did not reduce R: %f", r)
	}
}

func TestUpdateClamping(t *testing.T) {
	c := 1_250_000.0
	if r := nextRate(c, 100*c, 1e9, c); r < MinRateFraction*c-1 {
		t.Fatalf("rate below floor: %f", r)
	}
	if r := nextRate(c, 0, 0, c); r > c {
		t.Fatalf("rate above capacity: %f", r)
	}
	if r := nextRate(c, c, 0, 0); r != 0 {
		t.Fatalf("zero capacity must yield 0, got %f", r)
	}
}

func TestUpdateConvergesToFairShare(t *testing.T) {
	// Iterating the closed loop with N flows tracking R must settle
	// at R = C/N.
	c := 1_250_000.0
	for _, flows := range []int{1, 2, 3, 5} {
		r := c
		q := 0.0
		for i := 0; i < 400; i++ {
			y := float64(flows) * r
			// Crude queue integration: excess load accumulates.
			q += (y - c) * ControlPeriod.Seconds()
			if q < 0 {
				q = 0
			}
			r = nextRate(r, y, q, c)
		}
		want := c / float64(flows)
		if math.Abs(r-want)/want > 0.1 {
			t.Errorf("flows=%d: converged to %.0f, want %.0f", flows, r, want)
		}
	}
}

func TestPacedFlowRate(t *testing.T) {
	sim := netsim.New(1)
	a := endhost.NewHost(sim, core.MACFromUint64(1), core.IPv4Addr(10, 0, 0, 1))
	b := endhost.NewHost(sim, core.MACFromUint64(2), core.IPv4Addr(10, 0, 0, 2))
	a.NIC.Attach(netsim.NewChannel(sim, 100_000_000, 0, b, 0))
	b.NIC.Attach(netsim.NewChannel(sim, 100_000_000, 0, a, 0))

	var rcvd uint64
	b.Handle(StarDataPort, func(p *core.Packet) { rcvd += uint64(p.PayloadLen()) })

	f := NewPacedFlow(sim, a, b.MAC, b.IP, StarDataPort, nil)
	f.SetRate(125_000) // 1 Mb/s
	f.Start()
	sim.RunUntil(10 * netsim.Second)
	f.Stop()

	got := float64(rcvd) / 10
	if got < 100_000 || got > 135_000 {
		t.Fatalf("paced at %.0f B/s, want ~125000", got)
	}

	// Stop() must actually stop.
	before := f.Sent
	sim.RunUntil(11 * netsim.Second)
	if f.Sent != before {
		t.Fatal("flow kept sending after Stop")
	}
}

func TestStampedHeaderTakesMinimum(t *testing.T) {
	sim := netsim.New(1)
	base := NewBaseline(sim)
	_ = base
	l := &BaselineLink{rate: 500}
	pkt := &core.Packet{
		UDP:     &core.UDP{DstPort: BaselineDataPort},
		Payload: []byte{0, 0, 3, 0xE8}, // 1000
	}
	l.stamp(pkt)
	if got := uint32(pkt.Payload[2])<<8 | uint32(pkt.Payload[3]); got != 500 {
		t.Fatalf("stamp = %d", got)
	}
	// A smaller header survives a larger R.
	l.rate = 2000
	l.stamp(pkt)
	if got := uint32(pkt.Payload[2])<<8 | uint32(pkt.Payload[3]); got != 500 {
		t.Fatalf("min not preserved: %d", got)
	}
	// Non-baseline packets are untouched.
	other := &core.Packet{UDP: &core.UDP{DstPort: 99}, Payload: []byte{9, 9, 9, 9}}
	l.stamp(other)
	if other.Payload[0] != 9 {
		t.Fatal("stamped a foreign packet")
	}
}

// fairShares returns the expected R/C plateaus of Figure 2.
func fairShares() [3]float64 { return [3]float64{1.0, 0.5, 1.0 / 3} }

func checkFig2Shape(t *testing.T, res Fig2Result, name string) {
	t.Helper()
	want := fairShares()
	windows := [3][2]float64{{5, 10}, {15, 20}, {25, 30}}
	for i, w := range windows {
		got := res.MeanROverC(w[0], w[1])
		if math.Abs(got-want[i])/want[i] > 0.25 {
			t.Errorf("%s: plateau %d: mean R/C = %.3f, want ~%.3f",
				name, i+1, got, want[i])
		}
	}
	// Convergence after each flow arrival is fast (well under the
	// 10s the paper's figure allots per epoch).
	for i, w := range windows {
		ct := res.ConvergenceTime(w[0]-5, w[1], want[i], 0.2*want[i])
		if ct > 5 {
			t.Errorf("%s: epoch %d did not settle within 5s (took %.1fs)",
				name, i+1, ct)
		}
	}
}

func TestFigure2BaselineConverges(t *testing.T) {
	res := RunFigure2(DefaultFig2Config(VariantBaseline))
	if len(res.Samples) < 290 {
		t.Fatalf("samples: %d", len(res.Samples))
	}
	checkFig2Shape(t, res, "baseline")
}

func TestFigure2StarConverges(t *testing.T) {
	res := RunFigure2(DefaultFig2Config(VariantStar))
	if len(res.Samples) < 290 {
		t.Fatalf("samples: %d", len(res.Samples))
	}
	checkFig2Shape(t, res, "rcpstar")
}

func TestFigure2StarTracksBaseline(t *testing.T) {
	// "the behavior of RCP and RCP* are qualitatively similar":
	// plateau means within 20% of each other.
	star := RunFigure2(DefaultFig2Config(VariantStar))
	base := RunFigure2(DefaultFig2Config(VariantBaseline))
	for _, w := range [3][2]float64{{5, 10}, {15, 20}, {25, 30}} {
		s := star.MeanROverC(w[0], w[1])
		b := base.MeanROverC(w[0], w[1])
		if b == 0 || math.Abs(s-b)/b > 0.2 {
			t.Errorf("window %v: star=%.3f baseline=%.3f", w, s, b)
		}
	}
}

// The sampler sizes the series once: one sample per tick, every Flows
// row a capped window of one backing array, so appending to a row
// reallocates it instead of writing into its neighbour.
func TestFigure2SamplesDoNotAlias(t *testing.T) {
	cfg := DefaultFig2Config(VariantStar)
	cfg.Duration = 3*netsim.Second + 100*netsim.Millisecond
	cfg.SampleEvery = 200 * netsim.Millisecond
	cfg.FlowStarts = []netsim.Time{0, netsim.Second, 2 * netsim.Second}
	res := RunFigure2(cfg)

	// The sampler fires at 0.2, 0.4, ... 3.0 s after the start.
	const ticks = 15
	if len(res.Samples) != ticks {
		t.Fatalf("%d samples, want one per tick: %d", len(res.Samples), ticks)
	}
	if cap(res.Samples) != ticks {
		t.Errorf("cap(Samples) = %d, want the %d it was sized to", cap(res.Samples), ticks)
	}
	for i, s := range res.Samples {
		if want := 0.2 * float64(i+1); math.Abs(s.T-want) > 1e-9 {
			t.Fatalf("sample %d at t=%v, want %v", i, s.T, want)
		}
		if len(s.Flows) != len(cfg.FlowStarts) || cap(s.Flows) != len(cfg.FlowStarts) {
			t.Fatalf("sample %d: Flows len %d cap %d, want %d", i, len(s.Flows), cap(s.Flows), len(cfg.FlowStarts))
		}
	}
	for i := 0; i+1 < len(res.Samples); i++ {
		next := append([]float64(nil), res.Samples[i+1].Flows...)
		res.Samples[i].Flows = append(res.Samples[i].Flows, -1)
		for j, f := range res.Samples[i+1].Flows {
			if f != next[j] {
				t.Fatalf("appending to sample %d's Flows rewrote sample %d's flow %d: %v -> %v", i, i+1, j, next[j], f)
			}
		}
	}
}
