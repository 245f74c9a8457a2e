package faults_test

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/faults"
	"repro/internal/microburst"
	"repro/internal/netsim"
	"repro/internal/tcpu"
)

// pumpTPP is pump with every packet carrying the microburst telemetry
// program, so each traversal of a switch exercises its compiled-program
// cache.
func (r *rig) pumpTPP(from, to netsim.Time) (delivered uint64) {
	before := r.dst.Received
	for at := from; at < to; at += netsim.Millisecond {
		r.sim.At(at, func() {
			pkt := r.src.NewPacket(r.dst.MAC, r.dst.IP, 5000, 5001, 200)
			microburst.Instrument(pkt, 4)
			r.src.Send(pkt)
		})
	}
	r.sim.RunUntil(to + 10*netsim.Millisecond)
	return r.dst.Received - before
}

// TestProgCacheSurvivesPlanOnlyUntilReboot: the compiled-program cache
// is soft state, so a plan-driven crash-restart must flush it — the
// first telemetry packet after recovery recompiles instead of reusing a
// compilation from the previous boot epoch.
func TestProgCacheSurvivesPlanOnlyUntilReboot(t *testing.T) {
	const (
		rebootAt  = 40 * netsim.Millisecond
		bootDelay = 10 * netsim.Millisecond
	)
	// The sending NIC compiles under the default instruction limit, so
	// the program it attaches does not match these switches and each
	// one's own ingress cache serves — the cache under test.
	r := newRigWith(t, faults.Plan{Seed: 1, Events: []faults.Event{
		{At: rebootAt, Kind: faults.SwitchReboot, Target: "s0", BootDelay: bootDelay},
	}}, asic.Config{TCPU: tcpu.Config{MaxInstructions: 8}})

	if got := r.pumpTPP(10*netsim.Millisecond, 30*netsim.Millisecond); got != 20 {
		t.Fatalf("pre-reboot delivered %d/20", got)
	}
	if _, misses := r.sws[0].ProgCacheStats(); misses != 1 {
		t.Fatalf("pre-reboot misses = %d, want 1 (one compilation, then steady hits)", misses)
	}
	hits, _ := r.sws[0].ProgCacheStats()
	if hits == 0 {
		t.Fatal("no cache hits before reboot; rig is not exercising the ingress cache")
	}

	// Past the dark window; the L2 wipe makes early frames flood but
	// they still reach dst.
	if got := r.pumpTPP(60*netsim.Millisecond, 80*netsim.Millisecond); got != 20 {
		t.Fatalf("post-boot delivered %d/20", got)
	}
	if _, misses := r.sws[0].ProgCacheStats(); misses != 2 {
		t.Fatalf("post-reboot misses = %d, want 2 (reboot must flush the cache)", misses)
	}
	// s1 never rebooted: its single compilation survives the whole run.
	if _, misses := r.sws[1].ProgCacheStats(); misses != 1 {
		t.Fatalf("s1 misses = %d, want 1 (unrebooted switch keeps its cache)", misses)
	}
}
