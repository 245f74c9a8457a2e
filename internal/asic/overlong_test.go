package asic_test

import (
	"fmt"
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tcpu"
	"repro/internal/topo"
)

// TestOverlongProgramFaultsAtEveryHop: a program longer than a program
// cache keys gets no compilation at the NIC or at ingress (Cache.Get
// returns nil) and runs through Config.Exec: it faults against the
// device limit at each TCPU it crosses and still forwards to its
// destination, whose echo carries the fault back.  A program refused
// before its first instruction counts as a fault, never as executed.
func TestOverlongProgramFaultsAtEveryHop(t *testing.T) {
	sim := netsim.New(1)
	reg := obs.NewRegistry()
	n, src, dst, sws := topo.Line(sim, 3, edge, backbone, topo.Uniform(asic.Config{Metrics: reg}), nil)
	row := func(sw *asic.Switch, name string) uint64 {
		return counterRow(t, reg, fmt.Sprintf("switch/%d/%s", sw.ID(), name))
	}
	n.PrimeL2(5 * netsim.Millisecond)

	prober := endhost.NewProber(src)
	var echoed *core.TPP
	long := core.NewTPP(core.AddrStack, make([]core.Instruction, tcpu.MaxCachedInstructions+1), 1)
	prober.Probe(dst.MAC, dst.IP, long, func(e *core.TPP) { echoed = e.Clone() })
	sim.RunUntil(sim.Now() + 50*netsim.Millisecond)
	if echoed == nil || echoed.Flags&core.FlagError == 0 || echoed.Ptr != 0 {
		t.Fatalf("over-long probe echo = %+v, want FlagError and an untouched stack pointer", echoed)
	}
	for i, sw := range sws {
		if got := row(sw, "tpp_faults"); got != 1 {
			t.Errorf("switch %d: tpp_faults = %d, want 1", i, got)
		}
		if got := row(sw, "tpps_executed"); got != 0 {
			t.Errorf("switch %d: tpps_executed = %d, want 0", i, got)
		}
	}
}
