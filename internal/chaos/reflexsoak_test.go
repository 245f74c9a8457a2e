package chaos

import (
	"fmt"
	"reflect"
	"testing"
)

// TestReflexSoak runs the reflex fast-reroute soak — seeded gray flaps
// on the primary uplink racing a leaf crash-restart — for three pinned
// seeds, twice each: the two results must match word for word
// (including the per-millisecond fire/revert trajectory), and the
// robustness contract must hold at every seed.
func TestReflexSoak(t *testing.T) {
	// Each seed's whole result is pinned: a change that is not meant
	// to move the soak must leave these digests as they are.
	pinned := map[int64]uint64{1: 0xd23108b66d306998, 7: 0xd74fbed3f6f61e23, 42: 0x59a86fe745c20d01}
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := DefaultReflexSoak(seed)
			res := RunReflexSoak(cfg)
			if again := RunReflexSoak(cfg); !reflect.DeepEqual(res, again) {
				t.Fatalf("non-deterministic reflex soak:\nfirst  %+v\nsecond %+v", res, again)
			}
			if d := resultDigest(res); d != pinned[seed] {
				t.Errorf("result digest %#x, pinned %#x:\n%+v", d, pinned[seed], res)
			}
			checkReflexSoak(t, res)
		})
	}
}

// TestReflexSoakPinned pins the seed-1 run's totals: the soak's
// timeline (provisioning at t=0, the flap plan, the 10ms settle after
// the closing reconciliation) is part of its contract, and a shifted
// phase shows up here as a different count before it shows up anywhere
// else.
func TestReflexSoakPinned(t *testing.T) {
	res := RunReflexSoak(DefaultReflexSoak(1))
	if len(res.Trajectory) != 50 || res.Fires != 4 || res.Reverts != 4 ||
		res.Sent != 999 || res.Delivered != 990 {
		t.Fatalf("seed 1: trajectory %d samples, fires %d, reverts %d, sent %d, delivered %d; "+
			"want 50, 4, 4, 999, 990", len(res.Trajectory), res.Fires, res.Reverts, res.Sent, res.Delivered)
	}
}

func checkReflexSoak(t *testing.T, res ReflexSoakResult) {
	t.Helper()

	// 1. The reflex reacted to every flap that killed the heartbeat
	// round trip: at least one fire, and every fire eventually matched
	// by a revert or a ratification (no detour leaks past the end).
	if res.Fires == 0 {
		t.Fatalf("reflex never fired across %d flaps: %+v", reflexFlaps, res)
	}
	if res.Probes == 0 {
		t.Fatal("no heartbeats sent")
	}
	if res.EndDetoured && res.Ratified == 0 {
		t.Errorf("soak ended detoured without ratification: %+v", res)
	}
	if !res.EndDetoured && !res.EndStale {
		if res.Reverts == 0 {
			t.Errorf("arm ended armed but never reverted: %+v", res)
		}
	}

	// 2. No forwarding loop ever formed: a looped detour would burn
	// TTLs, and nothing may leak from the queues — crash-restart
	// included.
	if res.TTLDrops != 0 {
		t.Errorf("TTL drops = %d; a detour looped", res.TTLDrops)
	}
	if res.Leaked != 0 {
		t.Errorf("queue conservation violated: %d packets unaccounted", res.Leaked)
	}

	// 3. The crash happened and the arm survived it: the reboot wiped
	// the evidence SRAM, yet the run ended with the fabric reconciled.
	if res.Reboots != 1 {
		t.Errorf("Reboots = %d, want 1", res.Reboots)
	}
	if !res.Converged {
		t.Errorf("closing converge failed: %+v", res)
	}

	// 4. The detour carried traffic: losses stay bounded by the
	// detection windows (a few heartbeat periods per flap plus the
	// reboot's dark window), nowhere near a full flap outage.  Each
	// 2ms down window would cost ~40 packets unprotected; with the
	// reflex the whole soak loses far less than one window.
	lost := res.Sent - res.Delivered
	if res.Sent == 0 {
		t.Fatal("stream never sent")
	}
	if lost > 35 {
		t.Errorf("lost %d of %d packets; reflex did not hold the detour", lost, res.Sent)
	}

	// 5. The trajectory covered the whole run (one sample per ms).
	if len(res.Trajectory) < int(reflexSoakDuration/1e6)-1 {
		t.Errorf("trajectory has %d samples for a %v soak", len(res.Trajectory), reflexSoakDuration)
	}
}
