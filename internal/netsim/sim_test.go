package netsim

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestUnitsAndFormatting(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Time.Seconds = %v", got)
	}
	if got := (1 * Microsecond).String(); got != "0.000001s" {
		t.Errorf("String = %q", got)
	}
}

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("final time = %v", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

// Property: events fire in nondecreasing time regardless of insertion
// order, and FIFO within a timestamp.
func TestEventHeapInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	s := New(1)
	type stamp struct {
		at  Time
		seq int
	}
	var fired []stamp
	n := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		at := s.Now() + Time(r.Intn(50))
		mySeq := n
		n++
		s.At(at, func() {
			fired = append(fired, stamp{s.Now(), mySeq})
			if depth < 3 && r.Intn(2) == 0 {
				schedule(depth + 1)
			}
		})
	}
	for i := 0; i < 300; i++ {
		schedule(0)
	}
	s.Run()
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i].at < fired[j].at }) {
		t.Fatal("events fired out of time order")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("past scheduling did not panic")
			}
		}()
		s.At(50, func() {})
	})
	s.Run()
}

func TestAfter(t *testing.T) {
	s := New(1)
	var at Time
	s.At(100, func() {
		s.After(25, func() { at = s.Now() })
	})
	s.Run()
	if at != 125 {
		t.Fatalf("After fired at %v", at)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	count := 0
	s.At(10, func() { count++ })
	s.At(20, func() { count++ })
	s.At(30, func() { count++ })
	s.RunUntil(20)
	if count != 2 {
		t.Fatalf("count = %d after RunUntil(20)", count)
	}
	if s.Now() != 20 {
		t.Fatalf("now = %v", s.Now())
	}
	s.RunUntil(100)
	if count != 3 || s.Now() != 100 {
		t.Fatalf("count=%d now=%v", count, s.Now())
	}
}

// TestStop stops a run midway the one way there is, a bounded RunUntil:
// the events after its bound stay queued for the next run.
func TestStop(t *testing.T) {
	s := New(1)
	count := 0
	s.At(1, func() { count++ })
	s.At(2, func() { count++ })
	s.RunUntil(1)
	if count != 1 || s.Pending() != 1 || s.Now() != 1 {
		t.Fatalf("count = %d, pending = %d, now = %v after RunUntil(1)", count, s.Pending(), s.Now())
	}
	s.Run()
	if count != 2 || s.Now() != 2 {
		t.Fatalf("count = %d, now = %v after Run", count, s.Now())
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	var times []Time
	tk := s.Every(10, 5, func() { times = append(times, s.Now()) })
	s.At(27, func() { tk.Stop() })
	s.Run()
	want := []Time{10, 15, 20, 25}
	if len(times) != len(want) {
		t.Fatalf("ticks = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticks = %v", times)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	s := New(1)
	count := 0
	var tk *Ticker
	tk = s.Every(0, 1, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	s.Run()
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
}

func TestTickerBadPeriodPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Every(0, 0, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s := New(42)
		var vals []int64
		var tk *Ticker
		tk = s.Every(0, 7, func() {
			vals = append(vals, s.Rand().Int63n(1000))
			if len(vals) >= 50 {
				tk.Stop()
			}
		})
		s.Run()
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different runs")
		}
	}
}

// sink collects received packets with their arrival times.
type sink struct {
	sim     *Sim
	pkts    []*core.Packet
	ports   []int
	arrived []Time
}

func (k *sink) Receive(p *core.Packet, port int) {
	k.pkts = append(k.pkts, p)
	k.ports = append(k.ports, port)
	k.arrived = append(k.arrived, k.sim.Now())
}

func mkPacket(payload int) *core.Packet {
	return &core.Packet{
		Eth:    core.Ethernet{Type: core.EtherTypeIPv4},
		PadLen: payload,
	}
}

func TestChannelTiming(t *testing.T) {
	s := New(1)
	k := &sink{sim: s}
	// 8 Mb/s: 1 byte per microsecond.  Delay 100us.
	ch := NewChannel(s, 8_000_000, 100*Microsecond, k, 3)
	pkt := mkPacket(986) // 986 + 14 eth = 1000 bytes = 1ms serialization
	var doneAt Time
	s.At(0, func() { doneAt = ch.Send(pkt) })
	s.Run()
	if doneAt != 1*Millisecond {
		t.Fatalf("serialization done at %v", doneAt)
	}
	if len(k.pkts) != 1 || k.ports[0] != 3 {
		t.Fatalf("delivery: %v ports=%v", k.pkts, k.ports)
	}
	if k.arrived[0] != 1*Millisecond+100*Microsecond {
		t.Fatalf("arrival at %v", k.arrived[0])
	}
	if ch.BytesSent != 1000 || ch.PacketsSent != 1 {
		t.Fatalf("counters: %d bytes %d pkts", ch.BytesSent, ch.PacketsSent)
	}
}

func TestChannelBusyAndOnIdle(t *testing.T) {
	s := New(1)
	k := &sink{sim: s}
	ch := NewChannel(s, 8_000_000, 0, k, 0)
	idleCalls := 0
	ch.SetOnIdle(func() { idleCalls++ })
	s.At(0, func() {
		ch.Send(mkPacket(86)) // 100 bytes = 100us
		ch.WakeWhenIdle()
		if !ch.Busy() {
			t.Error("channel should be busy during transmission")
		}
	})
	s.Run()
	if idleCalls != 1 {
		t.Fatalf("OnIdle called %d times", idleCalls)
	}
	if ch.Busy() {
		t.Fatal("channel busy after completion")
	}
}

func TestChannelSendWhileBusyPanics(t *testing.T) {
	s := New(1)
	k := &sink{sim: s}
	ch := NewChannel(s, 8_000_000, 0, k, 0)
	s.At(0, func() {
		ch.Send(mkPacket(1000))
		defer func() {
			if recover() == nil {
				t.Error("Send while busy did not panic")
			}
		}()
		ch.Send(mkPacket(10))
	})
	s.Run()
}

func TestChannelBackToBackThroughput(t *testing.T) {
	// Saturating the channel must deliver exactly rate bytes/sec.
	s := New(1)
	k := &sink{sim: s}
	ch := NewChannel(s, 10_000_000, 0, k, 0) // 10 Mb/s
	sent := 0
	var pump func()
	pump = func() {
		if sent >= 100 {
			return
		}
		sent++
		ch.Send(mkPacket(1236)) // 1250 bytes on the wire
		ch.WakeWhenIdle()
	}
	ch.SetOnIdle(pump)
	s.At(0, pump)
	s.Run()
	// 100 packets * 1250 bytes = 125000 bytes at 1.25 MB/s = 0.1 s.
	if got := s.Now(); got != 100*Millisecond {
		t.Fatalf("drained at %v, want 0.1s", got)
	}
	if len(k.pkts) != 100 {
		t.Fatalf("delivered %d", len(k.pkts))
	}
}

func TestChannelValidation(t *testing.T) {
	s := New(1)
	k := &sink{sim: s}
	for _, fn := range []func(){
		func() { NewChannel(s, 0, 0, k, 0) },
		func() { NewChannel(s, 100, -1, k, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
	ch := NewChannel(s, 8000, 5, k, 1)
	if ch.rate != 8000 || ch.RateBytes() != 1000 || ch.delay != 5 {
		t.Fatal("accessors wrong")
	}
	if d := ch.SerializationDelay(1000); d != Second {
		t.Fatalf("SerializationDelay = %v", d)
	}
}

func TestRunUntilPast(t *testing.T) {
	s := New(1)
	count := 0
	s.At(10, func() { count++ })
	s.At(50, func() { count++ })
	s.RunUntil(30)
	if count != 1 || s.Now() != 30 {
		t.Fatalf("setup: count=%d now=%v", count, s.Now())
	}
	// A target at or before now must not rewind the clock and must not
	// fire events scheduled in the future.
	s.RunUntil(20)
	if s.Now() != 30 {
		t.Fatalf("RunUntil into the past moved the clock to %v", s.Now())
	}
	if count != 1 {
		t.Fatalf("RunUntil into the past fired future events: count=%d", count)
	}
	s.RunUntil(30) // t == now: same contract
	if s.Now() != 30 || count != 1 {
		t.Fatalf("RunUntil(now): count=%d now=%v", count, s.Now())
	}
	s.RunUntil(50)
	if count != 2 || s.Now() != 50 {
		t.Fatalf("resume: count=%d now=%v", count, s.Now())
	}
}

func TestTickerStopByPeerAtSameInstant(t *testing.T) {
	// An event at the same timestamp as a pending tick stops the
	// ticker; the already-queued tick must observe the stop and not
	// fire (nor reschedule).
	s := New(1)
	fires := 0
	tk := s.Every(10, 10, func() { fires++ })
	s.At(20, func() { tk.Stop() }) // queued before the t=20 tick
	s.Run()
	if fires != 1 {
		t.Fatalf("ticker fired %d times, want 1 (t=10 only)", fires)
	}
	if s.Pending() != 0 {
		t.Fatalf("stopped ticker left %d events queued", s.Pending())
	}
}

// Stop from outside the callback takes the ticker's next firing out of
// the queue at once: nothing is pending, nothing more executes, and Run
// ends at the last real event instead of one period later.
func TestTickerStopLeavesNothingQueued(t *testing.T) {
	s := New(1)
	fires := 0
	tk := s.Every(10, 10, func() { fires++ })
	s.At(25, func() {
		tk.Stop()
		if s.Pending() != 0 {
			t.Errorf("stopped ticker left %d events pending", s.Pending())
		}
	})
	s.Run()
	if fires != 2 {
		t.Fatalf("ticker fired %d times, want 2 (t=10, 20)", fires)
	}
	if s.Now() != 25 {
		t.Fatalf("Run ended at %v, want 25: the stopped ticker's firing at 30 must not move the clock", s.Now())
	}
	if st := s.Stats(); st.Executed != 3 || st.Discarded != 1 {
		t.Fatalf("stats %+v, want 3 executed (two ticks and the stop) and 1 discarded", st)
	}
	tk.Stop() // idempotent
	if st := s.Stats(); st.Discarded != 1 || s.Pending() != 0 {
		t.Fatalf("second Stop: stats %+v, pending %d", st, s.Pending())
	}
}

func TestSameTimeFIFONested(t *testing.T) {
	// Events scheduled *during* processing of time T, at time T, run
	// after everything already queued for T — scheduling order is
	// firing order even across nesting levels.
	s := New(1)
	var order []string
	s.At(5, func() {
		order = append(order, "a")
		s.At(5, func() { order = append(order, "a.child") })
	})
	s.At(5, func() { order = append(order, "b") })
	s.Run()
	want := "a,b,a.child"
	got := strings.Join(order, ",")
	if got != want {
		t.Fatalf("nested same-time order = %q, want %q", got, want)
	}
}

// Each Sim owns its packet pool: a block drawn through one Sim comes
// back to that Sim's free list and never shows in another's counts.
func TestSimsOwnTheirPools(t *testing.T) {
	a, b := New(1), New(1)
	if a.Pool() != a.Pool() || a.Pool() == b.Pool() {
		t.Fatal("Pool() must be one stable pool per Sim")
	}
	src := &core.Packet{Payload: []byte("x")}
	first := a.Pool().Clone(src)
	first.Recycle()
	if again := a.Pool().Clone(src); again != first {
		t.Error("Sim a did not get its recycled block back")
	}
	if fromB := b.Pool().Clone(src); fromB == first {
		t.Error("Sim b drew a block of Sim a's")
	}
	if sa, sb := a.Pool().Stats(), b.Pool().Stats(); sa != (core.PoolStats{Issued: 2, Recycled: 1, Allocated: 1}) ||
		sb != (core.PoolStats{Issued: 1, Allocated: 1}) {
		t.Errorf("pool counts leaked between Sims: a %+v, b %+v", sa, sb)
	}
}

// Collect pulls the engine's Stats and the pool's counts by name at
// snapshot time, not a copy taken earlier.
func TestCollectReadsStatsAtCall(t *testing.T) {
	s := New(1)
	got := map[string]uint64{}
	collect := func() {
		clear(got)
		s.Collect(func(name string, v uint64) { got[name] = v })
	}
	collect()
	for _, name := range []string{"netsim/events_executed", "netsim/heap_peak", "netsim/pending_peak",
		"netsim/arms_discarded", "netsim/pool_issued", "netsim/pool_recycled", "netsim/pool_adopted", "netsim/pool_allocated"} {
		if v, ok := got[name]; !ok || v != 0 {
			t.Fatalf("fresh Sim: %s = %d (emitted %v), want 0", name, v, ok)
		}
	}
	tm := s.NewTimer(func() {})
	tm.Reset(5)
	tm.Reset(6) // the first arm is discarded
	s.At(1, func() {})
	s.At(2, func() {})
	s.Run()
	collect()
	st := s.Stats()
	want := map[string]uint64{
		"netsim/events_executed": st.Executed, "netsim/heap_peak": uint64(st.HeapPeak),
		"netsim/pending_peak": uint64(st.PendingPeak), "netsim/arms_discarded": st.Discarded,
	}
	if st.Executed != 3 || st.Discarded != 1 || st.HeapPeak != 4 || st.PendingPeak != 3 {
		t.Fatalf("Stats = %+v, want 3 executed, 1 discarded, heap peak 4, pending peak 3", st)
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, Stats says %d", name, got[name], v)
		}
	}
}
