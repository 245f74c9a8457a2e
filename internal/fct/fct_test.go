package fct

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/rcp"
)

func TestShortFlowFinishesFasterUnderRCPStar(t *testing.T) {
	star := Run(DefaultConfig(rcp.VariantStar))
	tcp := Run(DefaultConfig(rcp.VariantAIMD))

	if !star.Completed {
		t.Fatal("RCP* flow never completed")
	}
	if !tcp.Completed {
		t.Fatal("AIMD flow never completed")
	}
	// The paper's core claim: the RCP-controlled flow converges to its
	// fair share immediately and finishes quickly; AIMD ramps up from
	// one segment per interval.
	if star.FCT >= tcp.FCT {
		t.Fatalf("RCP* FCT %v not faster than AIMD %v", star.FCT, tcp.FCT)
	}
	if float64(tcp.FCT) < 2*float64(star.FCT) {
		t.Fatalf("advantage too small: RCP* %v vs AIMD %v", star.FCT, tcp.FCT)
	}
	// RCP* finishes within a few control intervals of the fair-share
	// bound (capacity discovery + first collect cost ~2T, plus
	// transmission).
	if star.Slowdown() > 5 {
		t.Fatalf("RCP* slowdown = %.1f (FCT %v, fair ideal %v)",
			star.Slowdown(), star.FCT, star.FairIdeal)
	}
}

func TestFCTBoundsAreSane(t *testing.T) {
	r := Run(DefaultConfig(rcp.VariantStar))
	// 50 KB at 1.25 MB/s is 40 ms; fair share (3 flows) is 120 ms.
	if r.Ideal != 40*netsim.Millisecond {
		t.Fatalf("Ideal = %v", r.Ideal)
	}
	if r.FairIdeal != 120*netsim.Millisecond {
		t.Fatalf("FairIdeal = %v", r.FairIdeal)
	}
	// The flow cannot beat its fair-share bound by much (it may
	// slightly, while the background flows are still converging).
	if r.FCT < r.Ideal {
		t.Fatalf("FCT %v below the capacity bound %v", r.FCT, r.Ideal)
	}
}

func TestSweepSizesMonotone(t *testing.T) {
	sizes := []uint64{20_000, 100_000, 500_000}
	res := SweepSizes(rcp.VariantStar, sizes)
	if len(res) != 3 {
		t.Fatalf("results: %d", len(res))
	}
	for i := 1; i < len(res); i++ {
		if !res[i].Completed {
			t.Fatalf("size %d never completed", sizes[i])
		}
		if res[i].FCT <= res[i-1].FCT {
			t.Fatalf("FCT not increasing with size: %v then %v",
				res[i-1].FCT, res[i].FCT)
		}
	}
}

func TestAIMDPenaltyShrinksForLongFlows(t *testing.T) {
	// The ramp-up penalty is a fixed cost: relative slowdown must be
	// worse for short flows than for long ones.
	short := Run(withSize(rcp.VariantAIMD, 20_000))
	long := Run(withSize(rcp.VariantAIMD, 1_000_000))
	if !short.Completed || !long.Completed {
		t.Fatal("flows did not complete")
	}
	if short.Slowdown() <= long.Slowdown() {
		t.Fatalf("short-flow slowdown %.1f not worse than long-flow %.1f",
			short.Slowdown(), long.Slowdown())
	}
}

func withSize(s rcp.Variant, bytes uint64) Config {
	cfg := DefaultConfig(s)
	cfg.FlowBytes = bytes
	return cfg
}
