package chaos

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
)

// resultDigest is the FNV-64 hash of a result's %+v: a pin that any
// moved field, counter or trajectory sample breaks.
func resultDigest(v any) uint64 {
	h := fnv.New64()
	fmt.Fprintf(h, "%+v", v)
	return h.Sum64()
}

// TestChaosSoak runs the composed reboot + bursty-loss + blackhole +
// throttle scenario for three pinned seeds and asserts the robustness
// contract end to end.  Each seed runs twice: the two Results must be
// identical, word for word — the whole point of a seeded chaos plan is
// exact replay.
func TestChaosSoak(t *testing.T) {
	// Each seed's whole result is pinned: a change that is not meant
	// to move the soak must leave these digests as they are.
	pinned := map[int64]uint64{1: 0x8e618fa669633eee, 7: 0x58d7291a750d7f74, 42: 0x16b2a9951c2c8ffa}
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := Default(seed)
			res := Run(cfg)
			if again := Run(cfg); !reflect.DeepEqual(res, again) {
				t.Fatalf("non-deterministic soak:\nfirst  %+v\nsecond %+v", res, again)
			}
			if d := resultDigest(res); d != pinned[seed] {
				t.Errorf("result digest %#x, pinned %#x:\n%+v", d, pinned[seed], res)
			}
			checkSoak(t, cfg, res)
		})
	}
}

func checkSoak(t *testing.T, cfg Config, res Result) {
	t.Helper()

	// 0. The control plane held: the routing spec converged in one
	// attempt (6 routes per leaf + 6 per spine = 30 ops), the fault
	// plan scheduled, and the end-of-soak verify found the live fabric
	// still field-for-field on spec after two crash-restarts.
	if !res.Scenario.OK() {
		t.Fatalf("scenario not OK: aborted=%q failures=%v",
			res.Scenario.Aborted, res.Scenario.Failures())
	}
	prov := res.Scenario.Phases[0]
	if prov.Kind != "provision" || len(prov.Converges) != 1 {
		t.Fatalf("first phase = %+v, want one provision converge", prov)
	}
	if c := prov.Converges[0]; !c.Converged || c.Attempts != 1 || c.OpsApplied != 30 {
		t.Errorf("provision converge = %+v, want converged in 1 attempt with 30 ops", c)
	}

	// Telemetry reconciliation is only meaningful if the ring held
	// every span.
	if res.SpansDropped != 0 {
		t.Fatalf("tracer dropped %d spans; raise its capacity", res.SpansDropped)
	}

	// 1. Conservation: no queue anywhere duplicated or leaked a packet,
	// two crash-restarts included.
	if res.Leaked != 0 {
		t.Errorf("queue conservation violated: %d packets unaccounted", res.Leaked)
	}

	// 2. The crashes happened, dropped traffic, and every counter view
	// of them agrees exactly.
	if want := uint64(len(cfg.RebootAt)); res.Reboots != want {
		t.Errorf("Reboots = %d, want %d", res.Reboots, want)
	}
	if res.RebootDrops == 0 {
		t.Error("reboots dropped no packets under live traffic")
	}
	if uint64(res.RebootsMetric) != res.Reboots || res.RebootSpans != int(res.Reboots) {
		t.Errorf("reboot telemetry disagrees: counter=%d metric=%d spans=%d",
			res.Reboots, res.RebootsMetric, res.RebootSpans)
	}
	if res.SwitchUpSpans != int(res.Reboots) {
		t.Errorf("SwitchUpSpans = %d, want %d", res.SwitchUpSpans, res.Reboots)
	}
	if uint64(res.RebootDropMetric) != res.RebootDrops ||
		uint64(res.RebootDropSpans) != res.RebootDrops {
		t.Errorf("reboot-drop telemetry disagrees: counter=%d metric=%d spans=%d",
			res.RebootDrops, res.RebootDropMetric, res.RebootDropSpans)
	}

	// 3. RCP* noticed every crash through the epoch word, re-seeded the
	// wiped registers, and re-converged within the bounded window.
	const fairShare = 1.25e6 // 10 Mb/s fabric bottleneck, bytes/sec
	if res.EpochBumps < uint64(len(cfg.RebootAt)) {
		t.Errorf("EpochBumps = %d, want >= %d", res.EpochBumps, len(cfg.RebootAt))
	}
	if res.Reinits == 0 {
		t.Error("controller never re-seeded a wiped rate register")
	}
	for i, rate := range res.RateAfterReboot {
		if rate < 0.65*fairShare {
			t.Errorf("rate %d control intervals after reboot %d = %.0f B/s, want >= %.0f",
				30, i, rate, 0.65*fairShare)
		}
	}

	// 4. Accounting flagged the wipe instead of reporting garbage.
	if res.Polls == 0 {
		t.Fatal("poller never completed a poll")
	}
	if res.NegativeDeltas != 0 {
		t.Errorf("%d negative deltas reported across reboots", res.NegativeDeltas)
	}
	if res.Discontinuities == 0 {
		t.Error("counter wipe never flagged as a discontinuity")
	}

	// 5. The admission gate bit, throttled packets still forwarded (the
	// flagged echoes made the full round trip), and counter, metric and
	// span stream agree exactly.
	if res.Throttled == 0 {
		t.Error("admission gate never throttled despite an over-budget stream")
	}
	if res.ThrottledEchoes == 0 {
		t.Error("no throttled echo returned: throttled packets were not forwarded")
	}
	if res.CleanEchoes == 0 {
		t.Error("no un-throttled echo returned: gate never admitted the stream")
	}
	if uint64(res.ThrottleSpans) != res.Throttled ||
		uint64(res.ThrottleMetric) != res.Throttled {
		t.Errorf("throttle telemetry disagrees: counter=%d metric=%d spans=%d",
			res.Throttled, res.ThrottleMetric, res.ThrottleSpans)
	}
	// Chaos bit the stream too: the blackhole window must have reaped
	// probes through the deadline machinery.
	if res.StreamTimeouts == 0 {
		t.Error("blackhole window reaped no stream probes")
	}
}
