package endhost

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
)

// probeProg is a no-op TPP with one word of packet memory.
func probeProg() *core.TPP { return core.NewTPP(core.AddrStack, nil, 1) }

// lossyPair wires two hosts back to back and returns a's egress
// channel so tests can inject faults on the probe's forward path.
func lossyPair(sim *netsim.Sim, rate int64) (*Host, *Host, *netsim.Channel) {
	a := NewHost(sim, core.MACFromUint64(1), core.IPv4Addr(10, 0, 0, 1))
	b := NewHost(sim, core.MACFromUint64(2), core.IPv4Addr(10, 0, 0, 2))
	up := netsim.NewChannel(sim, rate, netsim.Microsecond, b, 0)
	a.NIC.Attach(up)
	b.NIC.Attach(netsim.NewChannel(sim, rate, netsim.Microsecond, a, 0))
	return a, b, up
}

// TestProbeTimeoutReaps: a probe whose echo is blackholed must be
// reaped at its deadline — the pending map stays bounded and the
// failure callback fires exactly once.
func TestProbeTimeoutReaps(t *testing.T) {
	sim := netsim.New(1)
	a, b, up := lossyPair(sim, 8_000_000)
	up.SetLoss(1, 5) // total blackout on the forward path
	p := NewProber(a)

	var failed, echoed int
	_, ok := p.ProbeCfg(b.MAC, b.IP, probeProg(),
		ProbeConfig{Timeout: 10 * netsim.Millisecond},
		func(*core.TPP) { echoed++ }, func() { failed++ })
	if !ok {
		t.Fatal("probe not registered")
	}
	if p.Outstanding() != 1 {
		t.Fatalf("Outstanding = %d", p.Outstanding())
	}
	sim.RunUntil(time100ms)
	if failed != 1 || echoed != 0 {
		t.Fatalf("failed=%d echoed=%d, want 1/0", failed, echoed)
	}
	if p.Outstanding() != 0 {
		t.Fatal("timed-out probe not reaped from pending")
	}
	if p.TimedOut != 1 {
		t.Fatalf("TimedOut = %d", p.TimedOut)
	}
}

const time100ms = 100 * netsim.Millisecond

// TestProbeRetrySucceedsAfterOutage: the link blackholes the first
// attempt, then recovers; the retransmission gets through and the
// success callback runs with a fully executed program.
func TestProbeRetrySucceedsAfterOutage(t *testing.T) {
	sim := netsim.New(1)
	a, b, up := lossyPair(sim, 8_000_000)
	up.SetUp(false)
	sim.At(15*netsim.Millisecond, func() { up.SetUp(true) })
	p := NewProber(a)

	var echoed, failed int
	p.ProbeCfg(b.MAC, b.IP, probeProg(),
		ProbeConfig{Timeout: 10 * netsim.Millisecond, Retries: 3, Backoff: 2},
		func(*core.TPP) { echoed++ }, func() { failed++ })
	sim.RunUntil(time100ms)

	if echoed != 1 || failed != 0 {
		t.Fatalf("echoed=%d failed=%d, want 1/0", echoed, failed)
	}
	if p.Retransmits == 0 {
		t.Fatal("recovery did not use a retransmission")
	}
	if p.Outstanding() != 0 {
		t.Fatal("answered probe left pending")
	}
}

// TestProbeRetryBackoffExhausts: with the link down for good, attempts
// space out by the backoff factor and the probe eventually fails after
// exactly Retries retransmissions.
func TestProbeRetryBackoffExhausts(t *testing.T) {
	sim := netsim.New(1)
	a, b, up := lossyPair(sim, 8_000_000)
	up.SetUp(false)
	p := NewProber(a)

	var failedAt netsim.Time
	p.ProbeCfg(b.MAC, b.IP, probeProg(),
		ProbeConfig{Timeout: 10 * netsim.Millisecond, Retries: 2, Backoff: 2},
		func(*core.TPP) { t.Fatal("echo on a dead link") },
		func() { failedAt = sim.Now() })
	sim.RunUntil(netsim.Second)

	// Deadlines: 10ms, then +20ms, then +40ms -> reap at 70ms.
	if failedAt != 70*netsim.Millisecond {
		t.Fatalf("reaped at %v, want 70ms (10+20+40 backoff)", failedAt)
	}
	if p.Retransmits != 2 || p.TimedOut != 1 {
		t.Fatalf("Retransmits=%d TimedOut=%d, want 2/1", p.Retransmits, p.TimedOut)
	}
}

// TestProbeRetryResendsFreshProgram: retransmissions must carry the
// program as it was passed, not the partially executed TPP mutated in
// flight, so the eventual echo records exactly one walk.
func TestProbeRetryResendsFreshProgram(t *testing.T) {
	sim := netsim.New(1)
	a, b, up := lossyPair(sim, 8_000_000)
	up.SetUp(false)
	sim.At(15*netsim.Millisecond, func() { up.SetUp(true) })
	p := NewProber(a)

	var echo *core.TPP
	p.ProbeCfg(b.MAC, b.IP, probeProg(),
		ProbeConfig{Timeout: 10 * netsim.Millisecond, Retries: 2, Backoff: 2},
		func(e *core.TPP) { echo = e }, nil)
	sim.RunUntil(time100ms)
	if echo == nil {
		t.Fatal("no echo")
	}
	if echo.Ptr != 0 {
		t.Fatalf("retransmitted program arrived pre-executed: SP=%d", echo.Ptr)
	}
}

// TestProbeGroupPartialOnSendFailure: when the NIC drops some of a
// group's sends, the group must still complete, delivering nil for the
// dropped members instead of leaking its callback forever.
func TestProbeGroupPartialOnSendFailure(t *testing.T) {
	sim := netsim.New(1)
	a, b, _ := lossyPair(sim, 8_000_000)
	a.NIC.max = 2 // first send transmits, second queues, rest tail-drop
	p := NewProber(a)

	tpps := []*core.TPP{probeProg(), probeProg(), probeProg(), probeProg()}
	var got []*core.TPP
	if !p.ProbeGroup(b.MAC, b.IP, tpps, func(g []*core.TPP) { got = g }) {
		t.Fatal("group with deliverable members reported total failure")
	}
	sim.RunUntil(time100ms)

	if got == nil {
		t.Fatal("group callback never fired (leaked)")
	}
	if len(got) != 4 {
		t.Fatalf("results len = %d", len(got))
	}
	okCount := 0
	for _, e := range got {
		if e != nil {
			okCount++
		}
	}
	if okCount != 3 {
		t.Fatalf("resolved echoes = %d, want 3 (one tail-dropped)", okCount)
	}
	if p.Outstanding() != 0 {
		t.Fatalf("stale cookies survive: Outstanding = %d", p.Outstanding())
	}
}

// TestProbeGroupPartialOnEchoLoss: with deadlines configured, a group
// member whose echo is lost resolves as nil and the group completes.
func TestProbeGroupPartialOnEchoLoss(t *testing.T) {
	// 100 kb/s: each ~60-byte probe occupies the wire for ~5 ms, so
	// the three members are spaced out by serialization.
	sim := netsim.New(2)
	a, b, up := lossyPair(sim, 100_000)
	p := NewProber(a)
	p.SetDefaults(ProbeConfig{Timeout: 30 * netsim.Millisecond})

	// Kill the forward path after the first member is on the wire:
	// member 0 echoes, the rest vanish.
	sim.At(5*netsim.Millisecond, func() { up.SetUp(false) })

	tpps := []*core.TPP{probeProg(), probeProg(), probeProg()}
	var got []*core.TPP
	p.ProbeGroup(b.MAC, b.IP, tpps, func(g []*core.TPP) { got = g })
	sim.RunUntil(time100ms)

	if got == nil {
		t.Fatal("group never completed despite deadlines")
	}
	if got[0] == nil {
		t.Fatal("surviving member lost its echo")
	}
	if got[1] != nil || got[2] != nil {
		t.Fatal("blackholed members delivered a result")
	}
	if p.Outstanding() != 0 {
		t.Fatal("group left pending cookies behind")
	}
}

// TestProbeGroupAllSendsFail: a group none of whose members could be
// sent returns false and never calls fn.
func TestProbeGroupAllSendsFail(t *testing.T) {
	sim := netsim.New(1)
	a, b, _ := lossyPair(sim, 8_000_000)
	a.NIC.max = 1
	// Fill the NIC so every group send tail-drops.
	for i := 0; i < 3; i++ {
		a.Send(a.NewPacket(b.MAC, b.IP, 1, 2, 1400))
	}
	p := NewProber(a)
	called := false
	if p.ProbeGroup(b.MAC, b.IP, []*core.TPP{probeProg(), probeProg()},
		func([]*core.TPP) { called = true }) {
		t.Fatal("undeliverable group reported success")
	}
	sim.RunUntil(time100ms)
	if called {
		t.Fatal("fn ran for a group that sent nothing")
	}
	if p.Outstanding() != 0 {
		t.Fatal("failed group registered cookies")
	}
}

// TestProbeCancel: a cancelled cookie runs neither callback; its armed
// deadline is called off with it.
func TestProbeCancel(t *testing.T) {
	sim := netsim.New(1)
	a, b, up := lossyPair(sim, 8_000_000)
	up.SetUp(false)
	p := NewProber(a)

	cookie, ok := p.ProbeCfg(b.MAC, b.IP, probeProg(),
		ProbeConfig{Timeout: 10 * netsim.Millisecond, Retries: 1},
		func(*core.TPP) { t.Fatal("echo after cancel") },
		func() { t.Fatal("failure callback after cancel") })
	if !ok {
		t.Fatal("probe not registered")
	}
	if !p.Cancel(cookie) {
		t.Fatal("Cancel missed a pending cookie")
	}
	if p.Cancel(cookie) {
		t.Fatal("double Cancel reported success")
	}
	sim.RunUntil(time100ms)
}

// TestLegacyProbeUnchanged: the zero config keeps the original
// contract — no deadline, entry pending until echo or Forget.
func TestLegacyProbeUnchanged(t *testing.T) {
	sim := netsim.New(1)
	a, b, up := lossyPair(sim, 8_000_000)
	up.SetLoss(1, 9)
	p := NewProber(a)

	if !p.Probe(b.MAC, b.IP, probeProg(), func(*core.TPP) { t.Fatal("echo through blackout") }) {
		t.Fatal("send failed")
	}
	sim.RunUntil(netsim.Second)
	if p.Outstanding() != 1 {
		t.Fatalf("legacy probe reaped without a deadline: Outstanding = %d", p.Outstanding())
	}
	p.Forget()
	if p.Outstanding() != 0 {
		t.Fatal("Forget left entries")
	}
}

// TestProbeDeadlineGoesWithTheProbe: whatever resolves a probe first —
// its echo, Cancel, or Forget — takes the deadline out of the event
// queue there and then, and neither callback runs afterwards.
func TestProbeDeadlineGoesWithTheProbe(t *testing.T) {
	cfg := ProbeConfig{Timeout: 10 * netsim.Millisecond, Retries: 2, Backoff: 2}
	for _, tc := range []struct {
		name    string
		echoes  int // echo callbacks expected
		resolve func(sim *netsim.Sim, p *Prober, cookie uint32)
	}{
		{"echo", 1, func(sim *netsim.Sim, p *Prober, _ uint32) {
			sim.RunUntil(netsim.Millisecond) // the round trip takes ~0.2 ms
		}},
		{"cancel", 0, func(_ *netsim.Sim, p *Prober, cookie uint32) {
			if !p.Cancel(cookie) {
				t.Fatal("Cancel missed a pending cookie")
			}
		}},
		{"forget", 0, func(_ *netsim.Sim, p *Prober, _ uint32) { p.Forget() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := netsim.New(1)
			a, b, up := lossyPair(sim, 8_000_000)
			if tc.echoes == 0 {
				up.SetUp(false) // nothing comes back on its own
			}
			p := NewProber(a)
			echoed, failed := 0, 0
			cookie, ok := p.ProbeCfg(b.MAC, b.IP, probeProg(), cfg,
				func(*core.TPP) { echoed++ }, func() { failed++ })
			if !ok {
				t.Fatal("probe not registered")
			}
			tc.resolve(sim, p, cookie)
			if p.Outstanding() != 0 || echoed != tc.echoes {
				t.Fatalf("after resolving: %d outstanding, %d echoes", p.Outstanding(), echoed)
			}
			// The frames have drained or will within the millisecond;
			// the deadline was due at 10 ms and must already be gone.
			sim.RunUntil(netsim.Millisecond)
			if n := sim.Pending(); n != 0 {
				t.Fatalf("%d events still pending: the resolved probe's deadline was left queued", n)
			}
			executed := sim.Stats().Executed
			sim.RunUntil(time100ms)
			if echoed != tc.echoes || failed != 0 || p.Retransmits != 0 || p.TimedOut != 0 {
				t.Fatalf("after the deadline: %d echoes, %d failures, %d retransmits, %d timed out",
					echoed, failed, p.Retransmits, p.TimedOut)
			}
			if got := sim.Stats(); got.Executed != executed || got.Discarded != 1 {
				t.Fatalf("stats %+v: want nothing executed past %d events and the one deadline discarded", got, executed)
			}
		})
	}
}

// switchIDProg is a one-PUSH program that records the switch it runs on.
func switchIDProg(memWords int) *core.TPP {
	return core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.SwitchBase + mem.SwitchID)},
	}, memWords)
}

// TestProbeKeepsNoReferenceToProgram: ProbeCfg reads the program during
// the call and keeps nothing of it.  The caller scribbles over its TPP
// as soon as the call returns, yet the echo of the first attempt — and
// of a retry, when the first attempt is lost — shows the original
// program executed, and the NIC's tenant seal and compilation never
// land on the caller's TPP.
func TestProbeKeepsNoReferenceToProgram(t *testing.T) {
	for _, lost := range []bool{false, true} {
		name := map[bool]string{false: "first-attempt", true: "retry"}[lost]
		t.Run(name, func(t *testing.T) {
			sim := netsim.New(1)
			sw, hosts := star(sim, 2)
			a, b := hosts[0], hosts[1]
			a.NIC.SetTenant(3)
			if lost {
				up := a.NIC.Channel()
				up.SetUp(false)
				sim.At(5*netsim.Millisecond, func() { up.SetUp(true) })
			}
			p := NewProber(a)
			prog := switchIDProg(2)
			want := prog.Clone()
			var echo *core.TPP
			if _, ok := p.ProbeCfg(b.MAC, b.IP, prog,
				ProbeConfig{Timeout: 10 * netsim.Millisecond, Retries: 1},
				func(e *core.TPP) { echo = e }, nil); !ok {
				t.Fatal("probe not registered")
			}
			prog.Ins[0] = core.Instruction{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)}
			for i := range prog.Mem {
				prog.Mem[i] = 0xaa
			}
			sim.RunUntil(time100ms)

			if echo == nil {
				t.Fatal("no echo")
			}
			if lost != (p.Retransmits == 1) {
				t.Fatalf("Retransmits = %d, want the echo from attempt %d", p.Retransmits, map[bool]int{false: 1, true: 2}[lost])
			}
			if echo.Ins[0] != want.Ins[0] || echo.Ptr != 4 || echo.Word(0) != sw.ID() || echo.Word(1) != 0 {
				t.Fatalf("echo ran %+v, SP %d, memory %x: want the original program executed once at switch %d",
					echo.Ins, echo.Ptr, echo.Mem, sw.ID())
			}
			if echo.Tenant != 3 {
				t.Fatalf("echo ran as tenant %d, want the NIC's seal 3", echo.Tenant)
			}
			if prog.Tenant != 0 || prog.Compiled != nil || prog.Ptr != 0 {
				t.Fatalf("caller's TPP carries tenant %d, compilation %v, SP %d: the send wrote through to it",
					prog.Tenant, prog.Compiled, prog.Ptr)
			}
		})
	}
}

// TestEchoStackPointerPastMemory: an echo whose header claims a stack
// pointer past its memory — a stray datagram; no TCPU writes one — is
// counted by the attached epoch tracker and matched by the prober
// without a panic, and both see only the frame its memory holds.
func TestEchoStackPointerPastMemory(t *testing.T) {
	sim := netsim.New(1)
	a, b, up := lossyPair(sim, 8_000_000)
	up.SetUp(false) // the real probe never arrives; only the stray echo does
	p := NewProber(a)
	tr := NewEpochTracker(nil)
	p.SetEpochTracker(tr)
	var echo *core.TPP
	cookie, ok := p.ProbeCfg(b.MAC, b.IP, probeProg(), ProbeConfig{}, func(e *core.TPP) { echo = e }, nil)
	if !ok {
		t.Fatal("probe not registered")
	}
	stray := epochCollect(t, 1, []HopEpoch{{SwitchID: 4, Epoch: 1}}) // two words of memory
	stray.Ptr = 64
	pkt := b.NewPacket(a.MAC, a.IP, ProbeEchoPort, EchoReplyPort, 0)
	pkt.Payload = binary.BigEndian.AppendUint32(stray.AppendTo(nil), cookie)
	b.Send(pkt)
	sim.Run()

	if p.Malformed != 0 || p.Matched != 1 || echo == nil {
		t.Fatalf("Malformed=%d Matched=%d, echo delivered %v: want the stray echo matched", p.Malformed, p.Matched, echo != nil)
	}
	if echo.Ptr != 64 || echo.Hop(2) != 1 {
		t.Fatalf("echo SP %d, Hop(2) = %d: want the header as sent and the one frame memory holds", echo.Ptr, echo.Hop(2))
	}
	if e, _ := tr.Last(4); tr.Observed != 1 || e != 1 {
		t.Fatalf("tracker Observed=%d, switch 4 at epoch %d: want the one hop memory holds", tr.Observed, e)
	}
}

// TestProbeRoundTripAllocs: once warm, a probe round trip with a
// deadline — send, execute at a switch, echo, match, callback —
// allocates one object, the echo TPP the callback owns.  The probe and
// echo packets, the pending entry, its deadline timer and every buffer
// are reused.
func TestProbeRoundTripAllocs(t *testing.T) {
	if core.PoolDebug {
		t.Skip("the pooldebug sanitizer formats a call site at every Recycle")
	}
	sim := netsim.New(1)
	_, hosts := star(sim, 2)
	a, b := hosts[0], hosts[1]
	p := NewProber(a)
	prog := switchIDProg(4)
	cfg := ProbeConfig{Timeout: 10 * netsim.Millisecond}
	echoes := 0
	fn := func(*core.TPP) { echoes++ }
	roundTrip := func() {
		if _, ok := p.ProbeCfg(b.MAC, b.IP, prog, cfg, fn, nil); !ok {
			t.Fatal("probe not registered")
		}
		sim.RunUntil(sim.Now() + netsim.Millisecond)
	}
	roundTrip() // warm-up: pool blocks, the entry and its timer, L2 learning
	roundTrip()
	if got := testing.AllocsPerRun(100, roundTrip); got > 1 {
		t.Errorf("a probe round trip allocates %v objects, want at most 1 (the echo TPP)", got)
	}
	if echoes != 103 || p.Outstanding() != 0 || p.TimedOut != 0 {
		t.Fatalf("%d echoes, %d outstanding, %d timed out: want every round trip answered", echoes, p.Outstanding(), p.TimedOut)
	}
}
