package netsim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestRateBytesSaturates guards the [Link:Capacity] register against
// 32-bit wraparound: links at or beyond ~34.4 Gb/s must read as
// MaxUint32 bytes/sec, not as garbage that seeds nonsense fair-share
// rates in rcp.InitRateRegisters.
func TestRateBytesSaturates(t *testing.T) {
	s := New(1)
	cases := []struct {
		bps  int64
		want uint32
	}{
		{10_000_000, 1_250_000},              // 10 Mb/s, exact
		{1_000_000_000, 125_000_000},         // 1 Gb/s, exact
		{34_359_738_360, math.MaxUint32},     // exactly 2^32 bytes/s
		{40_000_000_000, math.MaxUint32},     // 40 Gb/s wrapped before
		{100_000_000_000, math.MaxUint32},    // 100 Gb/s
		{34_359_738_352, math.MaxUint32 - 1}, // just below the limit
	}
	for _, c := range cases {
		ch := NewChannel(s, c.bps, 0, &sink{sim: s}, 0)
		if got := ch.RateBytes(); got != c.want {
			t.Errorf("RateBytes(%d bps) = %d, want %d", c.bps, got, c.want)
		}
	}
}

// TestChannelFullLoss exercises a loss probability of 1: every frame
// occupies the wire but none arrives — the blackout case fault plans rely on.
func TestChannelFullLoss(t *testing.T) {
	s := New(1)
	k := &sink{sim: s}
	ch := NewChannel(s, 1_000_000_000, 0, k, 0)
	ch.SetLossModel(NewGilbertElliott(0, 0, 1, 1, 3))
	for i := 0; i < 50; i++ {
		at := Time(i) * Millisecond
		s.At(at, func() { ch.Send(mkPacket(100)) })
	}
	s.Run()
	if len(k.pkts) != 0 {
		t.Fatalf("blackout delivered %d frames", len(k.pkts))
	}
	if ch.PacketsLost != 50 {
		t.Fatalf("PacketsLost = %d, want 50", ch.PacketsLost)
	}
}

// TestTracelessLossyChannel guards the nil-tracer harmonization: a
// channel with loss but no tracer must not panic on any of the three
// arrival paths (delivered, corrupted, link down).
func TestTracelessLossyChannel(t *testing.T) {
	s := New(1)
	k := &sink{sim: s}
	ch := NewChannel(s, 1_000_000_000, Microsecond, k, 0)
	ch.SetLossModel(NewGilbertElliott(0, 0, 0.5, 0.5, 11))
	for i := 0; i < 200; i++ {
		at := Time(i) * Millisecond
		s.At(at, func() { ch.Send(mkPacket(64)) })
	}
	s.At(150*Millisecond, func() { ch.SetUp(false) })
	s.At(170*Millisecond, func() { ch.SetUp(true) })
	s.Run() // must not panic
	if got := int(ch.PacketsLost+ch.PacketsDownDrops) + len(k.pkts); got != 200 {
		t.Fatalf("accounting: lost=%d down=%d delivered=%d, want 200 total",
			ch.PacketsLost, ch.PacketsDownDrops, len(k.pkts))
	}
}

// TestChannelDownDropsInFlightAndFuture pins the link-down contract:
// frames in flight when the link fails are dropped, frames sent while
// down are dropped, and frames sent after recovery arrive.
func TestChannelDownDropsInFlightAndFuture(t *testing.T) {
	s := New(1)
	k := &sink{sim: s}
	// 1 Gb/s, 1 ms propagation: a 100-byte frame serializes in 800 ns
	// and then spends a full millisecond in flight.
	ch := NewChannel(s, 1_000_000_000, Millisecond, k, 0)

	s.At(0, func() { ch.Send(mkPacket(100)) })               // in flight at cut
	s.At(500*Microsecond, func() { ch.SetUp(false) })        // cut mid-flight
	s.At(600*Microsecond, func() { ch.Send(mkPacket(100)) }) // sent while down
	s.At(2*Millisecond, func() { ch.SetUp(true) })
	s.At(3*Millisecond, func() { ch.Send(mkPacket(100)) }) // after recovery
	s.Run()

	if len(k.pkts) != 1 {
		t.Fatalf("delivered %d frames, want 1 (post-recovery only)", len(k.pkts))
	}
	if ch.PacketsDownDrops != 2 {
		t.Fatalf("PacketsDownDrops = %d, want 2", ch.PacketsDownDrops)
	}
	if ch.down {
		t.Fatal("link should be up after recovery")
	}
}

// TestChannelFlapKeepsTransmitterDraining: while down the transmitter
// still serializes (OnIdle keeps firing), so a queue feeding the
// channel drains rather than wedging — recovery then needs no special
// kick.
func TestChannelFlapKeepsTransmitterDraining(t *testing.T) {
	s := New(1)
	k := &sink{sim: s}
	ch := NewChannel(s, 1_000_000_000, 0, k, 0)
	ch.SetUp(false)

	queue := 10
	var pump func()
	pump = func() {
		if queue == 0 {
			return
		}
		queue--
		ch.Send(mkPacket(1000))
		ch.WakeWhenIdle()
	}
	ch.SetOnIdle(pump)
	s.At(0, pump)
	s.Run()
	if queue != 0 {
		t.Fatalf("transmitter wedged with %d frames queued", queue)
	}
	if len(k.pkts) != 0 {
		t.Fatalf("down link delivered %d frames", len(k.pkts))
	}
}

// TestChannelDownRecordsSpan: the link-down drop is visible in the
// span stream as StageLinkDown.
func TestChannelDownRecordsSpan(t *testing.T) {
	s := New(1)
	k := &sink{sim: s}
	ch := NewChannel(s, 1_000_000_000, 0, k, 0)
	tr := obs.NewTracer(64)
	ch.SetTrace(tr, 9)
	ch.SetUp(false)
	s.At(0, func() { ch.Send(mkPacket(100)) })
	s.Run()
	var downs int
	for _, ev := range tr.Events() {
		if ev.Stage == obs.StageLinkDown && ev.Node == 9 {
			downs++
		}
	}
	if downs != 1 {
		t.Fatalf("StageLinkDown events = %d, want 1", downs)
	}
}

// TestGilbertElliottBurstiness: with a sticky Bad state the model must
// produce longer loss runs than independent loss of the same average
// rate, and must replay exactly for a given seed.
func TestGilbertElliottBurstiness(t *testing.T) {
	run := func(seed int64) (lostTotal int, maxRun int) {
		ge := NewGilbertElliott(0.01, 0.1, 0, 1, seed)
		cur := 0
		for i := 0; i < 20_000; i++ {
			if ge.Lost() {
				lostTotal++
				cur++
				if cur > maxRun {
					maxRun = cur
				}
			} else {
				cur = 0
			}
		}
		return
	}
	lost1, max1 := run(42)
	lost2, max2 := run(42)
	if lost1 != lost2 || max1 != max2 {
		t.Fatal("Gilbert-Elliott pattern not seed-replayable")
	}
	if lost1 == 0 {
		t.Fatal("no losses produced")
	}
	// Mean bad-state dwell is 1/0.1 = 10 frames; bursts well beyond a
	// memoryless process of the same mean rate must appear.
	if max1 < 5 {
		t.Fatalf("max loss run = %d, expected bursty (>= 5)", max1)
	}
}

// TestGilbertElliottOnChannel wires the bursty model into a channel
// and checks loss accounting stays exact.
func TestGilbertElliottOnChannel(t *testing.T) {
	s := New(1)
	k := &sink{sim: s}
	ch := NewChannel(s, 1_000_000_000, 0, k, 0)
	ch.SetLossModel(NewGilbertElliott(0.05, 0.2, 0.001, 0.9, 17))
	const frames = 2000
	for i := 0; i < frames; i++ {
		at := Time(i) * Microsecond * 10
		s.At(at, func() { ch.Send(mkPacket(100)) })
	}
	s.Run()
	if ch.PacketsLost == 0 {
		t.Fatal("bursty model produced no loss")
	}
	if int(ch.PacketsLost)+len(k.pkts) != frames {
		t.Fatalf("accounting: lost=%d delivered=%d", ch.PacketsLost, len(k.pkts))
	}
}

// wakeOwner is an in-test channel owner driven by kick like a switch
// port, but with two strict-priority FIFO queues in front of its channel.
// With always set it asks for the transmit-complete wake-up after every
// Send, which queues the event unconditionally at the seq Send reserved
// — the contract the channel had when Send scheduled it itself.
// Otherwise it asks only while a frame is waiting, as Port and NIC do.
type wakeOwner struct {
	s      *Sim
	ch     *Channel
	always bool
	r      *rand.Rand // draws follow-up arrivals; consumed once per Send
	q      [2][]*core.Packet
	nextID uint64

	tx         []linkEvent
	tiesAhead  int // scripted arrivals at exactly busyUntil: ahead of transmit-complete in seq
	tiesBehind int // follow-up arrivals at exactly busyUntil: behind it
}

type linkEvent struct {
	At  Time
	UID uint64
}

func (o *wakeOwner) arrive(prio, wire int, ties *int) {
	if o.s.Now() == o.ch.busyUntil {
		*ties++
	}
	o.nextID++
	p := mkPacket(wire - core.EthernetHeaderLen)
	p.Meta.UID = o.nextID
	o.q[prio] = append(o.q[prio], p)
	o.kick()
}

func (o *wakeOwner) waiting() bool { return len(o.q[0])+len(o.q[1]) > 0 }

func (o *wakeOwner) kick() {
	if o.ch.Busy() {
		if !o.always && o.waiting() {
			o.ch.WakeWhenIdle()
		}
		return
	}
	for prio := range o.q {
		if len(o.q[prio]) == 0 {
			continue
		}
		p := o.q[prio][0]
		o.q[prio] = o.q[prio][1:]
		o.tx = append(o.tx, linkEvent{o.s.Now(), p.Meta.UID})
		done := o.ch.Send(p)
		if o.always || o.waiting() {
			o.ch.WakeWhenIdle()
		}
		// One Send in three is followed by a high-priority arrival at
		// the very instant it completes, scheduled after the Send: it
		// ties with the transmit-complete event and must run after it.
		if o.r.Intn(3) == 0 {
			o.s.At(done, func() { o.arrive(0, 100, &o.tiesBehind) })
		}
		return
	}
}

// uidSink logs deliveries by packet UID.
type uidSink struct {
	s   *Sim
	log []linkEvent
}

func (k *uidSink) Receive(p *core.Packet, _ int) {
	k.log = append(k.log, linkEvent{k.s.Now(), p.Meta.UID})
}

// runWakeOwner drives one owner over the seed's arrivals: frames of 100,
// 200 or 300 bytes at 1 ns per byte, arriving on a 100 ns grid at about
// 70 % load, so arrivals land exactly on transmit-complete instants all
// the time — pre-scheduled ones ahead of the transmit-complete event in
// seq order, follow-ups behind it.
func runWakeOwner(seed int64, always bool) (*wakeOwner, *uidSink) {
	s := New(1)
	k := &uidSink{s: s}
	o := &wakeOwner{s: s, always: always, r: rand.New(rand.NewSource(seed + 1000))}
	o.ch = NewChannel(s, 8_000_000_000, 250*Nanosecond, k, 0)
	o.ch.SetOnIdle(o.kick)
	r := rand.New(rand.NewSource(seed))
	at := Time(0)
	for i := 0; i < 2000; i++ {
		at += Time(r.Intn(8)) * 100 * Nanosecond
		prio, wire := r.Intn(2), 100*(1+r.Intn(3))
		s.At(at, func() { o.arrive(prio, wire, &o.tiesAhead) })
	}
	s.Run()
	return o, k
}

// Transmit-complete on demand is the always-fire contract minus the
// events that would have found nothing to send: an owner that asks for
// the wake-up after every Send and one that asks only while a frame
// waits transmit and deliver the same frames at the same times, ties at
// busyUntil included, because the event is queued at the seq Send
// reserved whenever it is asked for.  (Queued at a fresh seq instead, a
// late-asked wake-up runs after a follow-up arrival it should precede,
// the high-priority follow-up overtakes the waiting frame, and the
// transmit logs differ from the first seed on.)
func TestWakeOnDemandMatchesAlwaysFire(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		eager, eagerRx := runWakeOwner(seed, true)
		lazy, lazyRx := runWakeOwner(seed, false)
		if len(eager.tx) < 2000 || len(eagerRx.log) != len(eager.tx) || eager.waiting() {
			t.Fatalf("seed %d: always-fire owner sent %d, delivered %d", seed, len(eager.tx), len(eagerRx.log))
		}
		if !reflect.DeepEqual(eager.tx, lazy.tx) {
			t.Fatalf("seed %d: transmit logs differ between always-fire and on-demand wake-ups", seed)
		}
		if !reflect.DeepEqual(eagerRx.log, lazyRx.log) {
			t.Fatalf("seed %d: delivery logs differ between always-fire and on-demand wake-ups", seed)
		}
		if lazy.tiesAhead < 100 || lazy.tiesBehind < 100 {
			t.Fatalf("seed %d: %d arrivals tied with busyUntil ahead of the transmit-complete event and %d behind it; want hundreds of each",
				seed, lazy.tiesAhead, lazy.tiesBehind)
		}
		sent := eager.ch.PacketsSent
		if eager.ch.WakeupsAsked != sent || lazy.ch.WakeupsAsked == 0 || lazy.ch.WakeupsAsked > sent*3/4 {
			t.Fatalf("seed %d: %d sends, wake-ups asked: always-fire %d, on demand %d",
				seed, sent, eager.ch.WakeupsAsked, lazy.ch.WakeupsAsked)
		}
		t.Logf("seed %d: %d sends, ties %d ahead / %d behind, %d wake-ups asked", seed, sent, lazy.tiesAhead, lazy.tiesBehind, lazy.ch.WakeupsAsked)
		if d := eager.s.Stats().Executed - lazy.s.Stats().Executed; d != sent-lazy.ch.WakeupsAsked {
			t.Fatalf("seed %d: on-demand run executed %d fewer events, want %d (the wake-ups not asked)",
				seed, d, sent-lazy.ch.WakeupsAsked)
		}
	}
}

// A wake-up is asked at most once per transmission, and asking with no
// transmission to wait for — before the first Send, or after the
// channel went idle — queues nothing.  A zero-delay link is no
// exception: its transmit-complete is an event of its own, queued only
// when asked.
func TestWakeWhenIdleAsksOncePerTransmission(t *testing.T) {
	s := New(1)
	k := &sink{sim: s}
	ch := NewChannel(s, 8_000_000, 100*Microsecond, k, 0)
	idle := 0
	ch.SetOnIdle(func() { idle++ })
	ch.WakeWhenIdle()
	if s.Pending() != 0 {
		t.Fatalf("asking before any Send queued %d events", s.Pending())
	}
	var done Time
	s.At(0, func() {
		done = ch.Send(mkPacket(86))
		ch.WakeWhenIdle()
		ch.WakeWhenIdle()
	})
	s.At(50*Microsecond, ch.WakeWhenIdle)
	var idleAt Time
	ch.SetOnIdle(func() { idle++; idleAt = s.Now() })
	s.Run()
	if idle != 1 || idleAt != done || ch.WakeupsAsked != 1 {
		t.Fatalf("OnIdle ran %d times (last at %v, transmission done at %v), %d wake-ups asked; want once, at done",
			idle, idleAt, done, ch.WakeupsAsked)
	}
	ch.WakeWhenIdle() // the idle moment has passed
	s.At(s.Now(), func() { ch.Send(mkPacket(86)) })
	s.Run()
	if idle != 1 || len(k.pkts) != 2 {
		t.Fatalf("unasked transmission: OnIdle ran %d times, %d frames delivered; want 1 and 2", idle, len(k.pkts))
	}

	direct := NewChannel(s, 8_000_000, 0, k, 0)
	directIdle := 0
	direct.SetOnIdle(func() { directIdle++ })
	s.At(s.Now(), func() { direct.Send(mkPacket(86)) })
	s.Run()
	if directIdle != 0 || direct.WakeupsAsked != 0 {
		t.Fatalf("zero-delay link, unasked: OnIdle ran %d times, %d wake-ups queued; want 0 and 0", directIdle, direct.WakeupsAsked)
	}
	s.At(s.Now(), func() {
		direct.Send(mkPacket(86))
		direct.WakeWhenIdle()
	})
	s.Run()
	if directIdle != 1 || direct.WakeupsAsked != 1 {
		t.Fatalf("zero-delay link, asked: OnIdle ran %d times, %d wake-ups queued; want 1 and 1", directIdle, direct.WakeupsAsked)
	}
}
