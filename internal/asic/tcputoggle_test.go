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

// TestTCPUDisableToggle exercises the per-switch TCPU fault toggle: a
// probe walking three switches records only the hops whose TCPU is
// enabled, the disabled switch still forwards the packet, and
// re-enabling restores full traces.
func TestTCPUDisableToggle(t *testing.T) {
	sim := netsim.New(1)
	reg := obs.NewRegistry()
	n, src, dst, sws := topo.Line(sim, 3, edge, backbone, topo.Uniform(asic.Config{Metrics: reg}), nil)
	faults := func(sw *asic.Switch) uint64 {
		return counterRow(t, reg, fmt.Sprintf("switch/%d/tpp_faults", sw.ID()))
	}
	n.PrimeL2(5 * netsim.Millisecond)

	prober := endhost.NewProber(src)
	walk := func() *core.TPP {
		var echoed *core.TPP
		prober.Probe(dst.MAC, dst.IP, queueProbe(3), func(e *core.TPP) { echoed = e.Clone() })
		sim.RunUntil(sim.Now() + 50*netsim.Millisecond)
		if echoed == nil {
			t.Fatal("probe echo never arrived")
		}
		return echoed
	}

	// The TCPU defaults to enabled: every hop records.
	if e := walk(); e.Ptr != 12 {
		t.Fatalf("healthy walk recorded %d bytes, want 12", e.Ptr)
	}

	mid := sws[1]
	mid.SetTCPUEnabled(false)
	execsBefore := mid.TPPsExecuted()
	if e := walk(); e.Ptr != 8 {
		t.Fatalf("walk past disabled TCPU recorded %d bytes, want 8 (2 hops)", e.Ptr)
	}
	if mid.TPPsExecuted() != execsBefore {
		t.Fatal("disabled TCPU still executed a TPP")
	}

	mid.SetTCPUEnabled(true)
	if e := walk(); e.Ptr != 12 {
		t.Fatalf("recovered walk recorded %d bytes, want 12", e.Ptr)
	}

	// A program longer than a program cache keys gets no compilation at
	// the NIC or at ingress (Cache.Get returns nil) and runs through
	// Config.Exec: it faults against the device limit at each live
	// TCPU, executes nowhere, and a killed TCPU ignores it like any TPP.
	mid.SetTCPUEnabled(false)
	var before [3]uint64
	for i, sw := range sws {
		before[i] = faults(sw)
	}
	var echoed *core.TPP
	long := core.NewTPP(core.AddrStack, make([]core.Instruction, tcpu.MaxCachedInstructions+1), 1)
	prober.Probe(dst.MAC, dst.IP, long, func(e *core.TPP) { echoed = e.Clone() })
	sim.RunUntil(sim.Now() + 50*netsim.Millisecond)
	if echoed == nil || echoed.Flags&core.FlagError == 0 || echoed.Ptr != 0 {
		t.Fatalf("over-long probe echo = %+v, want FlagError and an untouched stack pointer", echoed)
	}
	for i, sw := range sws {
		want := before[i] + 1
		if sw == mid {
			want = before[i]
		}
		if got := faults(sw); got != want {
			t.Errorf("switch %d: tpp_faults = %d, want %d", i, got, want)
		}
	}
}
