package fabric_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asic"
	"repro/internal/fabric"
	"repro/internal/guard"
	"repro/internal/mem"
	"repro/internal/netsim"
)

// fleet registers three guarded switches as s0, s1, s2.
func fleet() (*netsim.Sim, *fabric.Controller, []*asic.Switch) {
	sim := netsim.New(1)
	ctl := fabric.New(sim)
	var sws []*asic.Switch
	for i, name := range []string{"s0", "s1", "s2"} {
		sw := asic.New(sim, asic.Config{ID: uint32(i + 1), Ports: 4, Guard: true})
		ctl.Register(name, sw)
		sws = append(sws, sw)
	}
	return sim, ctl, sws
}

// everywhere names the same services on every device of the fleet.
func everywhere(svcs ...fabric.Service) fabric.Spec {
	var spec fabric.Spec
	for _, name := range []string{"s0", "s1", "s2"} {
		spec.Devices = append(spec.Devices, fabric.DeviceSpec{Device: name, Services: svcs})
	}
	return spec
}

// serviceRegion reads one service's region back from a device.
func serviceRegion(t *testing.T, ctl *fabric.Controller, device, name string) mem.Region {
	t.Helper()
	st, derr := ctl.ReadState(device)
	if derr != nil {
		t.Fatal(derr)
	}
	for _, s := range st.Services {
		if s.Name == name {
			return s.Region
		}
	}
	t.Fatalf("%s holds no service %s: %+v", device, name, st.Services)
	return mem.Region{}
}

// The controller provisions a service named on several devices at one
// base on all of them, so a single compiled TPP addresses it
// network-wide, and Verify holds it to that: a device that seats the
// service elsewhere is reported incongruent, which no retry can fix.
func TestRegisterCongruentRegions(t *testing.T) {
	sim, ctl, sws := fleet()
	spec := everywhere(fabric.Service{Name: "rcp", Words: 64}, fabric.Service{Name: "ndb", Words: 128})
	res, finished := ctl.ConvergeWithin(spec, fabric.ConvergeConfig{}, netsim.Second)
	if !finished || !res.Converged || res.Attempts != 1 {
		t.Fatalf("converge: finished=%v %+v", finished, res)
	}
	if sim.Now() != 0 {
		t.Fatalf("a clean first attempt moved the clock to %v", sim.Now())
	}
	rcp, ndb := serviceRegion(t, ctl, "s0", "rcp"), serviceRegion(t, ctl, "s0", "ndb")
	for _, dev := range []string{"s1", "s2"} {
		if got := serviceRegion(t, ctl, dev, "rcp"); got != rcp {
			t.Fatalf("%s rcp region %+v, s0 has %+v", dev, got, rcp)
		}
		if got := serviceRegion(t, ctl, dev, "ndb"); got != ndb {
			t.Fatalf("%s ndb region %+v, s0 has %+v", dev, got, ndb)
		}
	}
	if rcp.End() > ndb.Base && ndb.End() > rcp.Base {
		t.Fatalf("service regions overlap: rcp %+v, ndb %+v", rcp, ndb)
	}

	// A tenant partition on s1 alone takes the SRAM after the services
	// there, so when rcp is re-provisioned larger, first fit seats it
	// past the partition on s1 and in ndb's wake on s0 and s2.
	if _, err := sws[1].GrantTenant(7, guard.DefaultACL(), 32, 0, 0); err != nil {
		t.Fatal(err)
	}
	grown := everywhere(fabric.Service{Name: "rcp", Words: 96}, fabric.Service{Name: "ndb", Words: 128})
	res, finished = ctl.ConvergeWithin(grown, fabric.ConvergeConfig{}, netsim.Second)
	if !finished || res.Converged || res.Attempts != 1 || res.BudgetExhausted {
		t.Fatalf("incongruent converge: finished=%v %+v", finished, res)
	}
	errs := ctl.Verify(grown)
	if len(errs) != 1 {
		t.Fatalf("Verify = %v, want one incongruence", errs)
	}
	e := errs[0]
	s0, s1 := serviceRegion(t, ctl, "s0", "rcp"), serviceRegion(t, ctl, "s1", "rcp")
	if e.Kind != fabric.ErrIncongruent || e.Kind.Retryable() || e.Device != "s1" {
		t.Fatalf("Verify error = %+v (retryable %v)", e, e.Kind.Retryable())
	}
	if e.Kind.String() != "incongruent" {
		t.Fatalf("kind name %q", e.Kind)
	}
	for _, want := range []string{"service rcp", "s0", fmt.Sprintf("%#x", s0.Base), fmt.Sprintf("%#x", s1.Base)} {
		if !strings.Contains(e.Detail, want) {
			t.Fatalf("detail %q does not name %q", e.Detail, want)
		}
	}
	if len(res.Pending) != 1 || res.Pending[0] != e {
		t.Fatalf("converge pending %v, want %v", res.Pending, e)
	}
}

// A device whose SRAM is mostly held by a task outside the controller's
// "fabric/" prefix cannot fit a spec's second service: the apply fails,
// and the rollback releases only what the apply itself allocated,
// never the foreign region or its contents.
func TestRegisterRollbackSparesForeignRegion(t *testing.T) {
	_, ctl, sws := fleet()
	sw := sws[0]
	foreign, err := sw.Allocator().Alloc("x", mem.SRAMWords-24)
	if err != nil {
		t.Fatal(err)
	}
	last := mem.SRAMIndex(foreign.End()) - 1
	sw.SetSRAM(last, 0xfeed)

	spec := fabric.Spec{Devices: []fabric.DeviceSpec{{Device: "s0", Services: []fabric.Service{
		{Name: "a", Words: 16}, {Name: "b", Words: 16},
	}}}}
	cs, errs, err := ctl.Diff(spec)
	if err != nil || len(errs) > 0 {
		t.Fatalf("Diff: err=%v device errs=%v", err, errs)
	}
	rep := ctl.Apply(cs)
	if errs := rep.Errors(); len(errs) != 1 || errs[0].Kind != fabric.ErrWriteFailed || !errs[0].RolledBack {
		t.Fatalf("Apply errors = %v, want one rolled-back write failure", errs)
	}
	if _, ok := sw.Allocator().Lookup("fabric/a"); ok {
		t.Fatal("rollback leaked service a")
	}
	if got, ok := sw.Allocator().Lookup("x"); !ok || got != foreign {
		t.Fatalf("rollback freed the foreign region: %+v, %v", got, ok)
	}
	if got := sw.SRAM(last); got != 0xfeed {
		t.Fatalf("foreign word = %#x, want 0xfeed", got)
	}
}
