package fabric_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/guard"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/tcam"
)

// harness is a two-switch fabric: leaf0 guarded, spine0 plain.
type harness struct {
	sim   *netsim.Sim
	ctl   *fabric.Controller
	leaf  *asic.Switch
	spine *asic.Switch
}

func newHarness(seed int64) *harness {
	sim := netsim.New(seed)
	leaf := asic.New(sim, asic.Config{ID: 1, Ports: 4, Guard: true, TPPRate: 1000})
	spine := asic.New(sim, asic.Config{ID: 2, Ports: 4})
	ctl := fabric.New(sim)
	ctl.Register("leaf0", leaf)
	ctl.Register("spine0", spine)
	return &harness{sim: sim, ctl: ctl, leaf: leaf, spine: spine}
}

// testSpec exercises every op family: tenants, seeded services, band
// routes and L3 prefixes on the guarded leaf, routes on the spine.
func testSpec() fabric.Spec {
	return fabric.Spec{Devices: []fabric.DeviceSpec{
		{
			Device: "leaf0",
			Tenants: []fabric.Tenant{
				{ID: 1, Policy: fabric.PolicyControl, Words: 64, Weight: 10, Burst: 16},
				{ID: 2, Policy: fabric.PolicyDefault, Words: 32},
			},
			Services: []fabric.Service{
				{Name: "rcp", Words: 8, Seed: []uint32{1250000, 0, 0xdead}},
				{Name: "tally", Words: 4},
			},
			Routes: []fabric.Route{
				{DstIP: core.IPv4Addr(10, 0, 0, 1), Priority: 100, OutPort: 1},
				{DstIP: core.IPv4Addr(10, 0, 0, 2), Priority: 100, OutPort: 2},
				{DstIP: core.IPv4Addr(10, 0, 9, 9), Priority: 50, Drop: true},
			},
			Prefixes: []fabric.Prefix{
				{Addr: core.IPv4Addr(10, 0, 0, 0), Len: 24, OutPort: 3},
				{Addr: 0, Len: 0, OutPort: 0},
			},
		},
		{
			Device: "spine0",
			Routes: []fabric.Route{
				{DstIP: core.IPv4Addr(10, 0, 0, 1), Priority: 10, OutPort: 0},
			},
		},
	}}
}

// mustConverge applies spec via plain Diff+Apply and fails the test on
// any error.
func mustConverge(t *testing.T, h *harness, spec fabric.Spec) {
	t.Helper()
	cs, errs, err := h.ctl.Diff(spec)
	if err != nil || len(errs) > 0 {
		t.Fatalf("Diff: err=%v device errs=%v", err, errs)
	}
	rep := h.ctl.Apply(cs)
	if !rep.OK() {
		t.Fatalf("Apply errors: %v", rep.Errors())
	}
	if errs := h.ctl.Verify(spec); len(errs) > 0 {
		t.Fatalf("Verify: %v", errs)
	}
}

func TestLifecycle(t *testing.T) {
	h := newHarness(1)
	spec := testSpec()

	cs, errs, err := h.ctl.Diff(spec)
	if err != nil || len(errs) > 0 {
		t.Fatalf("Diff: err=%v device errs=%v", err, errs)
	}
	if cs.Empty() {
		t.Fatal("fresh fabric diffed empty")
	}
	// 2 grants + 2 allocs + 3 routes + 2 prefixes on leaf0, 1 route on
	// spine0.
	if got := cs.Ops(); got != 10 {
		t.Fatalf("Ops() = %d, want 10\n%s", got, cs)
	}
	listing := cs.String()
	for _, want := range []string{
		"device leaf0 (base epoch 0)",
		"+ tenant 1 policy=control words=64 weight=10 burst=16",
		"+ tenant 2 policy=default words=32 weight=1 burst=8",
		"+ service rcp words=8 seed=3",
		"+ route dst=10.0.9.9 prio=50 -> drop",
		"+ prefix 10.0.0.0/24 -> port 3",
		"device spine0 (base epoch 0)",
	} {
		if !strings.Contains(listing, want) {
			t.Fatalf("dry-run listing missing %q:\n%s", want, listing)
		}
	}

	// Dry run writes nothing.
	if got := h.leaf.TCAM().Size(); got != 0 {
		t.Fatalf("Diff installed %d TCAM entries", got)
	}

	rep := h.ctl.Apply(cs)
	if !rep.OK() {
		t.Fatalf("Apply errors: %v", rep.Errors())
	}
	if got := rep.OpsApplied(); got != 10 {
		t.Fatalf("OpsApplied = %d, want 10", got)
	}
	if errs := h.ctl.Verify(spec); len(errs) > 0 {
		t.Fatalf("Verify after apply: %v", errs)
	}

	// Field-for-field: read back and compare against the normalized spec.
	st, derr := h.ctl.ReadState("leaf0")
	if derr != nil {
		t.Fatal(derr)
	}
	if len(st.Tenants) != 2 || st.Tenants[0].ID != 1 || st.Tenants[0].Words != 64 ||
		st.Tenants[0].ACL != guard.ControlACL() || st.Tenants[1].Burst != guard.DefaultBurst {
		t.Fatalf("tenant read-back mismatch: %+v", st.Tenants)
	}
	if len(st.Services) != 2 || st.Services[0].Name != "rcp" || st.Services[0].Region.Words != 8 {
		t.Fatalf("service read-back mismatch: %+v", st.Services)
	}
	if got := h.leaf.SRAM(mem.SRAMIndex(st.Services[0].Region.Base)); got != 1250000 {
		t.Fatalf("seed word 0 = %d, want 1250000", got)
	}
	if len(st.Routes) != 3 || len(st.Prefixes) != 2 {
		t.Fatalf("route/prefix read-back mismatch: %d routes, %d prefixes", len(st.Routes), len(st.Prefixes))
	}

	// The fixpoint: a second diff is empty, and its listing says so.
	cs2, _, _ := h.ctl.Diff(spec)
	if !cs2.Empty() {
		t.Fatalf("post-apply diff not empty:\n%s", cs2)
	}
	if !strings.Contains(cs2.String(), "changeset: empty") {
		t.Fatalf("empty listing = %q", cs2.String())
	}
}

func TestDiffRepairsDrift(t *testing.T) {
	h := newHarness(1)
	spec := testSpec()
	mustConverge(t, h, spec)

	// Drift the live state behind the controller's back: kill a grant,
	// free a service, retarget a route, drop a prefix, and install a
	// stray route inside the controller's band.
	if err := h.leaf.RevokeTenant(2); err != nil {
		t.Fatal(err)
	}
	if err := h.leaf.Allocator().Free("fabric/tally"); err != nil {
		t.Fatal(err)
	}
	var victim uint32
	for _, e := range h.leaf.TCAM().Entries() {
		if e.Value[0] == core.IPv4Addr(10, 0, 0, 1) {
			victim = e.ID
		}
	}
	if err := h.leaf.TCAM().Update(victim, asicAction(9)); err != nil {
		t.Fatal(err)
	}
	h.leaf.L3().Remove(core.IPv4Addr(10, 0, 0, 0), 24)
	strayV, strayM := dstRule(core.IPv4Addr(99, 9, 9, 9))
	h.leaf.TCAM().Insert(fabric.BandBase+7, strayV, strayM, asicAction(1))

	cs, errs, err := h.ctl.Diff(spec)
	if err != nil || len(errs) > 0 {
		t.Fatalf("Diff: err=%v device errs=%v", err, errs)
	}
	// remove stray + grant + alloc + update route + add prefix = 5.
	if got := cs.Ops(); got != 5 {
		t.Fatalf("repair diff Ops() = %d, want 5\n%s", got, cs)
	}
	rep := h.ctl.Apply(cs)
	if !rep.OK() {
		t.Fatalf("Apply errors: %v", rep.Errors())
	}
	if errs := h.ctl.Verify(spec); len(errs) > 0 {
		t.Fatalf("Verify after repair: %v", errs)
	}
}

// A service allocated over a freed service's words must not read its
// predecessor's residue past its own seed.
func TestServiceAllocZeroesPredecessorWords(t *testing.T) {
	h := newHarness(1)
	only := func(svc fabric.Service) fabric.Spec {
		return fabric.Spec{Devices: []fabric.DeviceSpec{{Device: "spine0", Services: []fabric.Service{svc}}}}
	}
	mustConverge(t, h, only(fabric.Service{Name: "a", Words: 8, Seed: []uint32{1, 2, 3, 4}}))
	a, ok := h.spine.Allocator().Lookup("fabric/a")
	if !ok {
		t.Fatal("service a not allocated")
	}
	for i := 0; i < a.Words; i++ {
		h.spine.SetSRAM(mem.SRAMIndex(a.Base)+i, 0xA5A5)
	}

	mustConverge(t, h, only(fabric.Service{Name: "b", Words: 8, Seed: []uint32{7}}))
	b, ok := h.spine.Allocator().Lookup("fabric/b")
	if !ok || b != a {
		t.Fatalf("service b at %+v, %v; want a's freed region %+v", b, ok, a)
	}
	for i := 0; i < b.Words; i++ {
		want := uint32(0)
		if i == 0 {
			want = 7
		}
		if got, _ := h.spine.ReadWord(b.Base + mem.Addr(i)); got != want {
			t.Fatalf("service b word %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestUnmanagedTablesUntouched(t *testing.T) {
	h := newHarness(1)
	// Legacy state outside the controller's ownership: a low-priority
	// route, a foreign allocator task, a prefix, a tenant.
	lv, lm := dstRule(core.IPv4Addr(10, 0, 0, 1))
	legacyRoute := h.spine.TCAM().Insert(100, lv, lm, asicAction(2))
	if _, err := h.spine.Allocator().Alloc("legacy-task", 16); err != nil {
		t.Fatal(err)
	}
	if _, err := h.leaf.GrantTenant(5, guard.DefaultACL(), 16, 0, 0); err != nil {
		t.Fatal(err)
	}

	// Spec with no tenants and no prefixes for leaf0: those tables are
	// unmanaged, so tenant 5 must survive.
	spec := fabric.Spec{Devices: []fabric.DeviceSpec{
		{Device: "leaf0", Services: []fabric.Service{{Name: "svc", Words: 8}}},
		{Device: "spine0", Routes: []fabric.Route{{DstIP: core.IPv4Addr(10, 0, 0, 2), Priority: 1, OutPort: 3}}},
	}}
	mustConverge(t, h, spec)

	if _, ok := h.leaf.Guard().Lookup(5); !ok {
		t.Fatal("unmanaged tenant 5 was revoked")
	}
	if _, ok := h.spine.TCAM().Get(legacyRoute); !ok {
		t.Fatal("legacy low-priority route was removed")
	}
	if _, ok := h.spine.Allocator().Lookup("legacy-task"); !ok {
		t.Fatal("foreign allocator task was freed")
	}
}

func TestApplyRollsBackOnWriteFailure(t *testing.T) {
	h := newHarness(1)
	base := testSpec()
	mustConverge(t, h, base)
	before, _ := h.ctl.ReadState("leaf0")

	// Scribble into a service region so rollback has real contents to
	// restore.
	rcpBase := mem.SRAMIndex(before.Services[0].Region.Base)
	h.leaf.SetSRAM(rcpBase+1, 0xbeef)

	// A spec whose second service cannot fit: the first alloc lands,
	// the second fails, and the whole device must roll back.
	bad := base
	bad.Devices = append([]fabric.DeviceSpec(nil), base.Devices...)
	leaf := bad.Devices[0]
	leaf.Services = append([]fabric.Service{
		{Name: "aaa-huge", Words: mem.SRAMWords - 8 - 4 - 32}, // fits beside rcp+tally...
		{Name: "zzz-one", Words: 64},                          // ...but leaves only 32 for this
	}, leaf.Services...)
	bad.Devices[0] = leaf

	cs, errs, err := h.ctl.Diff(bad)
	if err != nil || len(errs) > 0 {
		t.Fatalf("Diff: err=%v device errs=%v", err, errs)
	}
	rep := h.ctl.Apply(cs)
	if rep.OK() {
		t.Fatal("over-committed apply reported success")
	}
	derrs := rep.Errors()
	if len(derrs) != 1 || derrs[0].Kind != fabric.ErrWriteFailed || !derrs[0].RolledBack {
		t.Fatalf("want one rolled-back write-failed error, got %v", derrs)
	}
	if derrs[0].Device != "leaf0" {
		t.Fatalf("error names device %q", derrs[0].Device)
	}

	// The device is back at the pre-apply snapshot, contents included.
	after, _ := h.ctl.ReadState("leaf0")
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("rollback mismatch:\nbefore %+v\nafter  %+v", before, after)
	}
	if got := h.leaf.SRAM(rcpBase + 1); got != 0xbeef {
		t.Fatalf("service contents not restored: word1 = %#x", got)
	}
	if errs := h.ctl.Verify(base); len(errs) > 0 {
		t.Fatalf("base spec no longer verifies after rollback: %v", errs)
	}
}

func TestApplyEpochStamp(t *testing.T) {
	h := newHarness(1)
	spec := testSpec()
	cs, _, err := h.ctl.Diff(spec)
	if err != nil {
		t.Fatal(err)
	}

	// The switch crash-restarts between diff and apply.
	h.leaf.Reboot(netsim.Millisecond)

	// Mid-boot the device is dark; the rest of the ChangeSet still
	// applies (per-device all-or-nothing, not per-fabric).
	rep := h.ctl.Apply(cs)
	errs := rep.Errors()
	if len(errs) != 1 || errs[0].Device != "leaf0" || errs[0].Kind != fabric.ErrDeviceDark {
		t.Fatalf("mid-boot apply: want leaf0 dark only, got %v", errs)
	}
	st, derr := h.ctl.ReadState("spine0")
	if derr != nil || len(st.Routes) != 1 {
		t.Fatalf("spine0 after partial apply: %v, %+v", derr, st.Routes)
	}

	// Post-boot the epoch moved: the stale leaf0 change must not land.
	h.sim.RunUntil(h.sim.Now() + 2*netsim.Millisecond)
	var leafCS fabric.ChangeSet
	for _, dc := range cs.Devices {
		if dc.Device == "leaf0" {
			leafCS.Devices = append(leafCS.Devices, dc)
		}
	}
	rep = h.ctl.Apply(leafCS)
	errs = rep.Errors()
	if len(errs) != 1 || errs[0].Kind != fabric.ErrEpochRaced {
		t.Fatalf("stale apply: want epoch-raced, got %v", errs)
	}
	if !errs[0].Kind.Retryable() {
		t.Fatal("epoch-raced must be retryable")
	}
	if got := h.leaf.TCAM().Size(); got != 0 {
		t.Fatalf("stale apply landed %d TCAM entries", got)
	}
}

// A ChangeSet whose device drifted after the diff, inside the same
// epoch, lands every op it carries — and still leaves the device off
// spec.  Apply's read-back must see the whole device, not just the ops
// it wrote.
func TestApplyRejectsStaleChangeSet(t *testing.T) {
	h := newHarness(1)
	spec := testSpec()
	cs, errs, err := h.ctl.Diff(spec)
	if err != nil || len(errs) > 0 {
		t.Fatalf("Diff: err=%v device errs=%v", err, errs)
	}

	// A foreign entry lands in spine0's band after the diff; no reboot,
	// so the epoch still matches.
	v, m := dstRule(core.IPv4Addr(99, 9, 9, 9))
	h.spine.TCAM().Insert(fabric.BandBase+7, v, m, asicAction(1))
	before, _ := h.ctl.ReadState("spine0")

	rep := h.ctl.Apply(cs)
	var spineErr *fabric.DeviceError
	for _, d := range rep.Devices {
		if d.Device == "spine0" {
			spineErr = d.Err
		} else if d.Err != nil {
			t.Fatalf("%s: %v", d.Device, d.Err)
		}
	}
	if spineErr == nil || spineErr.Kind != fabric.ErrVerifyFailed || !spineErr.RolledBack {
		t.Fatalf("stale apply on spine0: got %v, want a rolled-back verify-failed", spineErr)
	}
	after, _ := h.ctl.ReadState("spine0")
	if !reflect.DeepEqual(before.Routes, after.Routes) {
		t.Fatalf("spine0 routes not rolled back:\nbefore %+v\nafter  %+v", before.Routes, after.Routes)
	}

	res, finished := h.ctl.ConvergeWithin(spec, fabric.ConvergeConfig{}, netsim.Second)
	if !finished || !res.Converged {
		t.Fatalf("converge after stale apply: finished=%v %+v", finished, res)
	}
	if errs := h.ctl.Verify(spec); len(errs) > 0 {
		t.Fatalf("Verify: %v", errs)
	}
}

func TestDiffErrors(t *testing.T) {
	h := newHarness(1)

	// Unknown device.
	_, errs, err := h.ctl.Diff(fabric.Spec{Devices: []fabric.DeviceSpec{{Device: "nope"}}})
	if err != nil || len(errs) != 1 || errs[0].Kind != fabric.ErrUnknownDevice {
		t.Fatalf("unknown device: err=%v errs=%v", err, errs)
	}
	if errs[0].Kind.Retryable() {
		t.Fatal("unknown-device must not be retryable")
	}

	// Tenants on a guard-less switch.
	_, errs, err = h.ctl.Diff(fabric.Spec{Devices: []fabric.DeviceSpec{
		{Device: "spine0", Tenants: []fabric.Tenant{{ID: 1, Words: 8}}},
	}})
	if err != nil || len(errs) != 1 || errs[0].Kind != fabric.ErrSpecInvalid {
		t.Fatalf("guardless tenants: err=%v errs=%v", err, errs)
	}

	// A route or prefix to a port the device does not have is named and
	// refused, never converged and "verified"; a Drop route has no port.
	ip := core.IPv4Addr(10, 0, 0, 1)
	ports := h.leaf.Ports()
	for _, tc := range []struct {
		name   string
		dev    fabric.DeviceSpec
		detail string // what the refusal names; empty: accepted
	}{
		{"route port -1", fabric.DeviceSpec{Routes: []fabric.Route{{DstIP: ip, OutPort: -1}}}, "route 10.0.0.1 -> port -1,"},
		{"route port Ports()", fabric.DeviceSpec{Routes: []fabric.Route{{DstIP: ip, OutPort: ports}}}, "route 10.0.0.1 -> port 4,"},
		{"route last port", fabric.DeviceSpec{Routes: []fabric.Route{{DstIP: ip, OutPort: ports - 1}}}, ""},
		{"drop route, any port", fabric.DeviceSpec{Routes: []fabric.Route{{DstIP: ip, OutPort: -7, Drop: true}}}, ""},
		{"prefix port -1", fabric.DeviceSpec{Prefixes: []fabric.Prefix{{Addr: ip, Len: 24, OutPort: -1}}}, "prefix 10.0.0.0/24 -> port -1,"},
		{"prefix port Ports()", fabric.DeviceSpec{Prefixes: []fabric.Prefix{{Addr: ip, Len: 24, OutPort: ports}}}, "prefix 10.0.0.0/24 -> port 4,"},
	} {
		tc.dev.Device = "leaf0"
		cs, errs, err := h.ctl.Diff(fabric.Spec{Devices: []fabric.DeviceSpec{tc.dev}})
		switch {
		case err != nil:
			t.Fatalf("%s: %v", tc.name, err)
		case tc.detail == "" && (len(errs) != 0 || cs.Ops() != 1):
			t.Fatalf("%s: errs=%v ops=%d, want one clean op", tc.name, errs, cs.Ops())
		case tc.detail != "" && (len(errs) != 1 || errs[0].Kind != fabric.ErrSpecInvalid ||
			errs[0].Device != "leaf0" || !strings.Contains(errs[0].Detail, tc.detail) ||
			errs[0].Kind.Retryable() || !cs.Empty()):
			t.Fatalf("%s: errs=%v cs=%v, want one spec-invalid on leaf0 naming %q", tc.name, errs, cs, tc.detail)
		}
	}

	// Invalid specs fail Normalize, not per-device.
	for _, bad := range []fabric.Spec{
		{Devices: []fabric.DeviceSpec{{Device: "leaf0"}, {Device: "leaf0"}}},
		{Devices: []fabric.DeviceSpec{{Device: "leaf0", Tenants: []fabric.Tenant{{ID: 0, Words: 8}}}}},
		{Devices: []fabric.DeviceSpec{{Device: "leaf0", Tenants: []fabric.Tenant{{ID: 1, Words: 8, Weight: math.NaN()}}}}},
		{Devices: []fabric.DeviceSpec{{Device: "leaf0", Tenants: []fabric.Tenant{{ID: 1, Words: 8, Weight: math.Inf(1)}}}}},
		{Devices: []fabric.DeviceSpec{{Device: "leaf0", Routes: []fabric.Route{{Priority: fabric.BandSize}}}}},
		{Devices: []fabric.DeviceSpec{{Device: "leaf0", Services: []fabric.Service{{Name: "s", Words: 0}}}}},
	} {
		if _, _, err := h.ctl.Diff(bad); err == nil {
			t.Fatalf("spec %+v passed Normalize", bad)
		}
	}
}

// asicAction builds a forward-to-port TCAM action.
func asicAction(port int) tcam.Action { return tcam.Action{OutPort: port} }

// dstRule builds an exact-destination TCAM match.
func dstRule(ip uint32) (tcam.Key, tcam.Key) { return tcam.DstIPRule(ip) }
