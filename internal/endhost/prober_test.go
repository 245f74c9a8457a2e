package endhost

import (
	"testing"

	"repro/internal/core"
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

// TestProbeRetryResendsFreshProgram: retransmissions must carry a
// pristine clone, not the partially executed TPP mutated in flight, so
// the eventual echo records exactly one walk.
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
