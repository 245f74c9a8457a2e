package endhost

import "testing"

func TestRegionPollerBaselineAndDeltas(t *testing.T) {
	p := NewRegionPoller(4)
	if len(p.words) != 4 {
		t.Fatalf("tracked %d words", len(p.words))
	}
	// Baseline sweep: pre-existing values count into cumulative.
	deltas, discont := p.Fold(0, 0, []uint32{3, 0, 7, 1})
	if discont {
		t.Fatal("baseline flagged a discontinuity")
	}
	if deltas[0] != 3 || deltas[2] != 7 {
		t.Fatalf("baseline deltas = %v", deltas)
	}
	// Steady growth.
	deltas, discont = p.Fold(0, 0, []uint32{5, 2, 7, 1})
	if discont || deltas[0] != 2 || deltas[1] != 2 || deltas[2] != 0 {
		t.Fatalf("growth deltas = %v (discont %v)", deltas, discont)
	}
	if p.Current(0) != 5 || p.Cumulative(0) != 5 {
		t.Fatalf("word 0: current %d cumulative %d", p.Current(0), p.Cumulative(0))
	}
	if p.Folds != 2 {
		t.Fatalf("Folds = %d", p.Folds)
	}
}

func TestRegionPollerEpochRebase(t *testing.T) {
	p := NewRegionPoller(2)
	p.Fold(0, 0, []uint32{10, 20})
	// Crash: epoch bumps, values restart low.  Deltas re-base to the
	// post-wipe value instead of going negative.
	deltas, discont := p.Fold(0, 1, []uint32{2, 1})
	if !discont {
		t.Fatal("epoch bump not flagged")
	}
	if deltas[0] != 2 || deltas[1] != 1 {
		t.Fatalf("re-based deltas = %v", deltas)
	}
	if p.Discontinuities() != 2 {
		t.Fatalf("Discontinuities = %d", p.Discontinuities())
	}
	if p.Cumulative(0) != 12 || p.Current(0) != 2 {
		t.Fatalf("word 0: cumulative %d current %d", p.Cumulative(0), p.Current(0))
	}
}

func TestRegionPollerValueRegression(t *testing.T) {
	p := NewRegionPoller(1)
	p.Fold(0, 5, []uint32{10})
	// Same epoch but the value ran backwards: belt-and-braces re-base.
	deltas, discont := p.Fold(0, 5, []uint32{4})
	if !discont || deltas[0] != 4 {
		t.Fatalf("regression: deltas %v discont %v", deltas, discont)
	}
	if p.Cumulative(0) != 14 {
		t.Fatalf("Cumulative = %d", p.Cumulative(0))
	}
}

func TestRegionPollerClipsOutOfRegion(t *testing.T) {
	p := NewRegionPoller(2)
	deltas, _ := p.Fold(1, 0, []uint32{5, 9, 9})
	if deltas[0] != 5 || deltas[1] != 0 || deltas[2] != 0 {
		t.Fatalf("clipped deltas = %v", deltas)
	}
	if p.Cumulative(1) != 5 {
		t.Fatalf("Cumulative(1) = %d", p.Cumulative(1))
	}
	// Out-of-range queries are zero, not panics.
	if p.Current(-1) != 0 || p.Cumulative(7) != 0 {
		t.Fatal("out-of-range query not zero")
	}
}
