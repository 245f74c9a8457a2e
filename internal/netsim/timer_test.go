package netsim

import "testing"

// A timer fires once per arm, at the arm's time; a Reset while armed
// supersedes the earlier arm, Stop calls the arm off, and an arm that
// was called off never runs, never moves the clock and counts neither
// as pending nor as executed.
func TestTimerResetAndStop(t *testing.T) {
	s := New(1)
	var fired []Time
	tm := s.NewTimer(func() { fired = append(fired, s.Now()) })
	if tm.Armed() || s.Pending() != 0 {
		t.Fatalf("new timer: armed %v, pending %d", tm.Armed(), s.Pending())
	}
	tm.Stop() // disarmed: nothing to do

	tm.Reset(10)
	tm.Reset(30) // supersedes the arm at 10
	if !tm.Armed() || s.Pending() != 1 {
		t.Fatalf("after two Resets: armed %v, pending %d, want one live arm", tm.Armed(), s.Pending())
	}
	s.At(20, func() {})
	s.Run()
	if len(fired) != 1 || fired[0] != 30 {
		t.Fatalf("fired at %v, want once at 30", fired)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}

	tm.Reset(50)
	s.At(40, func() {})
	tm.Stop()
	if tm.Armed() || s.Pending() != 1 {
		t.Fatalf("after Stop: armed %v, pending %d, want only the event at 40", tm.Armed(), s.Pending())
	}
	s.Run()
	if len(fired) != 1 {
		t.Fatalf("stopped arm ran: fired at %v", fired)
	}
	if s.Now() != 40 {
		t.Fatalf("Run ended at %v: the stopped arm at 50 moved the clock past the last event at 40", s.Now())
	}
	if st := s.Stats(); st.Executed != 3 || st.Discarded != 2 {
		t.Fatalf("stats %+v, want 3 executed (20, 30, 40) and 2 discarded (10, 50)", st)
	}

	// RunUntil drops a stale arm it passes without running it either.
	tm.Reset(60)
	tm.Stop()
	s.RunUntil(100)
	if len(fired) != 1 || s.Now() != 100 || s.Pending() != 0 || len(s.keys) != 0 {
		t.Fatalf("after RunUntil: fired %v, now %v, pending %d, heap %d", fired, s.Now(), s.Pending(), len(s.keys))
	}
}

// The callback may re-arm its own timer; the new arm takes its seq at
// the Reset, so events the callback scheduled before it run first.
func TestTimerResetFromCallback(t *testing.T) {
	s := New(1)
	var order []string
	var tm *Timer
	n := 0
	tm = s.NewTimer(func() {
		n++
		order = append(order, "tick")
		if n < 3 {
			s.At(s.Now()+5, func() { order = append(order, "between") })
			tm.Reset(s.Now() + 5)
		}
	})
	tm.Reset(0)
	s.Run()
	want := []string{"tick", "between", "tick", "between", "tick"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestTimerResetInPastPanics(t *testing.T) {
	s := New(1)
	tm := s.NewTimer(func() {})
	s.RunUntil(100)
	defer func() {
		if recover() == nil {
			t.Error("arming a timer in the past did not panic")
		}
	}()
	tm.Reset(50)
}

// Short-lived timers — one per probe is the pattern — leave nothing
// behind: whether their arms fire, are stopped just before they would,
// or are stopped with the clock standing still (so no stale key ever
// surfaces and only the sweep can drop it), the heap and the payload
// slab stay proportional to what is pending, not to how many timers
// there have been.
func TestTimerSlabStaysBounded(t *testing.T) {
	const timers = 100_000
	for _, tc := range []struct {
		name string
		each func(s *Sim, tm *Timer, i int)
	}{
		{"fires", func(s *Sim, tm *Timer, i int) {
			tm.Reset(s.Now() + 3)
			s.RunUntil(s.Now() + 1)
		}},
		{"stopped-late", func(s *Sim, tm *Timer, i int) {
			tm.Reset(s.Now() + 50)
			s.At(s.Now()+1, tm.Stop)
			s.RunUntil(s.Now() + 1)
		}},
		{"stopped-at-once", func(s *Sim, tm *Timer, i int) {
			tm.Reset(s.Now() + Time(1000+i))
			tm.Stop()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(1)
			ran := 0
			// A standing population, so "proportional to pending" is
			// not "empty".
			for i := 0; i < 10; i++ {
				s.NewTimer(func() {}).Reset(Second)
			}
			for i := 0; i < timers; i++ {
				tc.each(s, s.NewTimer(func() { ran++ }), i)
			}
			st := s.Stats()
			bound := 4 * (st.PendingPeak + sweepMin)
			if len(s.slots) > bound || cap(s.keys) > bound || len(s.free) > bound {
				t.Fatalf("after %d timers (pending peak %d): slab %d, heap cap %d, free list %d; want each <= %d",
					timers, st.PendingPeak, len(s.slots), cap(s.keys), len(s.free), bound)
			}
			if s.Pending() > 13 {
				t.Fatalf("pending %d, want the 10 standing arms and at most 3 in flight", s.Pending())
			}
			s.Run()
			if tc.name == "fires" && ran != timers || tc.name != "fires" && ran != 0 {
				t.Fatalf("%d of %d timers ran", ran, timers)
			}
			if got := s.Stats(); got.Executed+got.Discarded < timers {
				t.Fatalf("stats %+v do not account for %d arms", got, timers)
			}
		})
	}
}

// A sweep only removes keys that would have been dropped anyway: the
// survivors run in the same (at, seq) order.
func TestTimerSweepKeepsOrder(t *testing.T) {
	s := New(1)
	var got []int
	var stop []*Timer
	for i := 0; i < 4*sweepMin; i++ {
		i := i
		tm := s.NewTimer(func() { got = append(got, i) })
		// Times fall in eight groups so that ties are ordered by seq.
		tm.Reset(Time(100 + (i*7)%8))
		if i%4 != 0 {
			stop = append(stop, tm)
		}
	}
	for _, tm := range stop {
		tm.Stop()
	}
	if s.stale >= sweepMin || len(s.keys) >= 2*sweepMin {
		t.Fatalf("no sweep happened: %d stale of %d keys", s.stale, len(s.keys))
	}
	s.Run()
	if len(got) != sweepMin {
		t.Fatalf("%d timers ran, want %d", len(got), sweepMin)
	}
	for j := 1; j < len(got); j++ {
		a, b := got[j-1], got[j]
		ta, tb := (a*7)%8, (b*7)%8
		if ta > tb || ta == tb && a > b {
			t.Fatalf("timer %d (t=%d) ran before timer %d (t=%d)", a, ta, b, tb)
		}
	}
}
