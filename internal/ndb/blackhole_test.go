package ndb

import (
	"testing"

	"repro/internal/obs"
)

// TestBlackholeLocalizesFailedLink is the acceptance test: the
// experiment must deterministically identify the injected failed link
// — and only it — from TPP hop traces.
func TestBlackholeLocalizesFailedLink(t *testing.T) {
	cfg := DefaultBlackholeConfig()
	cfg.Trace = obs.NewTracer(1 << 14)
	res := RunBlackhole(cfg)

	walks := BlackholeSpines * (BlackholeLeaves - 1) * BlackholeSpines
	if res.BaselinePaths != walks {
		t.Fatalf("baseline round answered %d/%d walks", res.BaselinePaths, walks)
	}
	if !res.Localized {
		t.Fatalf("not localized: suspects = %v (candidates %v, proven up %v)",
			res.Suspects, res.Candidates, res.ProvenUp)
	}
	want := LinkID{Leaf: cfg.FailLeaf, Spine: cfg.FailSpine}
	if res.Suspects[0] != want {
		t.Fatalf("localized %v, injected fault was %v", res.Suspects[0], want)
	}
	if res.RecoveredPaths != walks {
		t.Fatalf("recovery round answered %d/%d walks", res.RecoveredPaths, walks)
	}
	if res.Retransmits == 0 {
		t.Fatal("fault round never exercised probe retries")
	}
	if res.TimedOut == 0 {
		t.Fatal("no probe was reaped during the outage")
	}
	if res.FaultSpans != 2 {
		t.Fatalf("fault spans in stream = %d, want 2 (inject + recover)", res.FaultSpans)
	}
}

// TestBlackholeDeterministicAcrossRuns: same config, same verdict and
// same probe accounting — the whole hunt replays by seed.
func TestBlackholeDeterministicAcrossRuns(t *testing.T) {
	a := RunBlackhole(DefaultBlackholeConfig())
	b := RunBlackhole(DefaultBlackholeConfig())
	if a.ProbesSent != b.ProbesSent || a.TimedOut != b.TimedOut ||
		a.Retransmits != b.Retransmits {
		t.Fatalf("probe accounting diverged: %+v vs %+v", a, b)
	}
	if len(a.Suspects) != len(b.Suspects) || a.Suspects[0] != b.Suspects[0] {
		t.Fatalf("verdicts diverged: %v vs %v", a.Suspects, b.Suspects)
	}
}

// TestBlackholeOtherLink: moving the injected fault moves the verdict
// with it — the localization tracks the fault, not a fixed answer.
func TestBlackholeOtherLink(t *testing.T) {
	cfg := DefaultBlackholeConfig()
	cfg.FailLeaf, cfg.FailSpine = 2, 1
	res := RunBlackhole(cfg)
	if !res.Localized {
		t.Fatalf("not localized: suspects = %v", res.Suspects)
	}
	if want := (LinkID{Leaf: 2, Spine: 1}); res.Suspects[0] != want {
		t.Fatalf("localized %v, want %v", res.Suspects[0], want)
	}
}

// TestBlackholeSourceLegFallsBackToCandidates: when the failed link is
// on the source's own leg (leaf0-spine0), every probe via spine 0 dies,
// so nothing can prove the shared first hop up — the suspect set then
// degrades to the full candidate set of the failed paths, and the
// verdict is correctly "not localized to one link".
func TestBlackholeSourceLegFallsBackToCandidates(t *testing.T) {
	cfg := DefaultBlackholeConfig()
	cfg.FailLeaf, cfg.FailSpine = 0, 0
	res := RunBlackhole(cfg)
	if res.Localized {
		t.Fatalf("source-leg fault cannot be pinned to one link, got %v", res.Suspects)
	}
	if len(res.Suspects) == 0 {
		t.Fatal("no suspects at all despite dead paths")
	}
	// The true link must at least be among the suspects.
	found := false
	for _, l := range res.Suspects {
		if l == (LinkID{Leaf: 0, Spine: 0}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("true fault missing from suspects %v", res.Suspects)
	}
}
