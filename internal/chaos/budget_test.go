package chaos

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// TestRunAllocBudget pins what one warm chaos run allocates, as a
// count: set-up, per-run state and the probers' pending entries, but
// nothing per accounting round trip — each Counter builds its programs
// once and keeps its operations on a free list (3 449 objects per run
// at seed 1 while every Add and Poll built its own programs and
// closures; 2 105 while switches built their ports, meters and queues
// one by one and the pool grew a block at a time; 1 883 while each
// fresh pool block allocated its buffers one by one; ≈ 1 800 since they
// are carved from the pool's arenas).  The count repeats to a few
// objects, so the budget is checked in plain builds only: `make check`
// runs the test without -race for that.  Under -race sync.Pool drops a
// random share of its Puts (≈ +180 objects, varying run to run), and
// under -tags pooldebug the sanitizer formats a call-site string at
// every Recycle.
func TestRunAllocBudget(t *testing.T) {
	if core.PoolDebug || raceDetector {
		t.Skip("allocation counts do not repeat under pooldebug or the race detector")
	}
	cfg := Default(1)
	Run(cfg) // warm-up: lazily grown runtime and package state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Run(cfg)
	runtime.ReadMemStats(&after)
	n := after.Mallocs - before.Mallocs
	t.Logf("one chaos run allocates %d objects", n)
	if n > 1850 {
		t.Errorf("one chaos run allocates %d objects, budget 1 850", n)
	}
}
