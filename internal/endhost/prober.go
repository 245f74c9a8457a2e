package endhost

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
)

// ProbeConfig bounds one probe's lifetime.  The zero value reproduces
// the legacy fire-and-wait behavior: no deadline, no retries, the
// pending entry lives until the echo arrives or the prober forgets it.
type ProbeConfig struct {
	// Timeout is how long to wait for the echo before the attempt is
	// declared lost.  Zero means wait forever (and disables retries,
	// since there is no timer to drive them).
	Timeout netsim.Time
	// Retries is how many times a timed-out (or send-dropped) probe
	// is retransmitted before it is reaped and its failure callback
	// runs.  Every retransmission doubles the timeout.
	Retries int
}

// pendingProbe is one outstanding probe's bookkeeping.  Entries live on
// their prober's free list between probes and keep what they were given
// once — the deadline timer, the program buffers — so a probe round trip
// makes none of it.
type pendingProbe struct {
	p      *Prober
	cookie uint32
	fn     func(*core.TPP)
	onFail func()
	cfg    ProbeConfig

	// prog is a retriable probe's own copy of its program, in buffers
	// the entry keeps across incarnations: every retry is stamped from
	// it, never from the copy the network executed (and mutated), nor
	// from the caller's TPP, which ProbeCfg does not keep.
	prog   core.TPP
	dstMAC core.MAC
	dstIP  uint32

	attempt int
	timeout netsim.Time
	// deadline expires the current attempt.  It is made the first time
	// the entry carries a Timeout, runs pp.expire, and is armed only
	// while the entry is pending: whatever resolves the probe first
	// stops it.
	deadline *netsim.Timer
}

// Prober sends TPP probe packets and collects their echoes.  One
// Prober per host handles any number of destinations and outstanding
// probes; echoes are matched by a cookie carried in the probe payload.
// Probes are subject to congestion and loss: give them a deadline
// (ProbeConfig) and the prober reaps or retransmits them, keeping the
// pending set bounded even on a faulty network.
//
// A probe is a value the prober copies, not an object it sends: every
// attempt goes out in a packet drawn from the simulation's pool with
// its own copy of the program (Host.NewProbePooled), and the echo comes
// back into a pooled block the host recycles once the prober has
// parsed it.  The echo is parsed into one TPP the prober owns and
// reuses, and an echo callback borrows it: the *core.TPP it receives is
// valid only until the callback returns (like Tracer.Each's span), and
// the next echo overwrites it.  A callback that keeps the echo — in a
// slice, a struct, a variable outside the closure — keeps e.Clone().
// The borrow is sound because one goroutine drives the simulation and
// sending only schedules events, so no other echo is parsed while a
// callback runs.  Under the pooldebug build tag the prober poisons the
// echo when the callback returns, so a kept reference reads garbage
// loudly instead of the next echo's words quietly.
type Prober struct {
	host     *Host
	next     uint32
	pending  map[uint32]*pendingProbe
	free     []*pendingProbe // resolved entries, reused LIFO
	defaults ProbeConfig
	echo     core.TPP // every echo is parsed here; callbacks borrow it

	// Sent and Matched count probe transmissions (including
	// retransmissions) and successfully matched echoes.
	Sent    uint64
	Matched uint64
	// Malformed counts echo packets that failed to parse.
	Malformed uint64
	// Retransmits counts timed-out attempts that were resent.
	Retransmits uint64
	// TimedOut counts probes reaped after exhausting their retries.
	TimedOut uint64
}

// NewProber builds a prober and claims the host's echo-reply port.
func NewProber(h *Host) *Prober {
	p := &Prober{host: h, pending: make(map[uint32]*pendingProbe)}
	h.Sink(EchoReplyPort, p.onEcho)
	return p
}

// SetDefaults installs the ProbeConfig that Probe and ProbeGroup use.
func (p *Prober) SetDefaults(cfg ProbeConfig) { p.defaults = cfg }

// Defaults returns the ProbeConfig that Probe and ProbeGroup use.
func (p *Prober) Defaults() ProbeConfig { return p.defaults }

// Outstanding returns the number of probes awaiting echoes.
//
//api:harness where the prober tests see what is still pending
func (p *Prober) Outstanding() int { return len(p.pending) }

// After runs fn once d has elapsed on the host's clock.  Probe clients
// use it to pace their own application-level retries — e.g. backing
// off after an echo shows the program was throttled by an admission
// gate — without reaching into the simulator directly.
func (p *Prober) After(d netsim.Time, fn func()) { p.host.Sim.After(d, fn) }

// Probe sends tpp toward the destination host; fn runs when the echo
// returns, with the executed program (its packet memory filled in by
// the switches on the forward path).  fn borrows that TPP: it is valid
// only until fn returns, so fn keeps e.Clone(), never e.
// The prober's default ProbeConfig governs deadline and retries; with
// the zero default, lost probes simply never call fn and Forget can
// reap them.  Like ProbeCfg, Probe keeps no reference to tpp.
func (p *Prober) Probe(dstMAC core.MAC, dstIP uint32, tpp *core.TPP, fn func(*core.TPP)) bool {
	_, ok := p.ProbeCfg(dstMAC, dstIP, tpp, p.defaults, fn, nil)
	return ok
}

// ProbeCfg sends tpp with an explicit per-probe config.  Exactly one
// of fn (echo arrived) and onFail (deadline and retries exhausted)
// eventually runs for a registered probe; onFail requires a nonzero
// Timeout to ever fire.  It returns the probe's cookie and whether the
// probe was registered: ok == false means nothing was sent and neither
// callback will run.
//
// ProbeCfg reads tpp during the call and keeps no reference to it: the
// packet carries a copy, and so does a retriable probe's entry for its
// retries.  The caller may reuse or change tpp as soon as ProbeCfg
// returns, and neither the NIC's tenant seal, nor its compilation, nor
// the network's execution ever lands on it.
func (p *Prober) ProbeCfg(dstMAC core.MAC, dstIP uint32, tpp *core.TPP,
	cfg ProbeConfig, fn func(*core.TPP), onFail func()) (cookie uint32, ok bool) {
	p.next++
	cookie = p.next
	pp := p.entry()
	pp.cookie, pp.fn, pp.onFail, pp.cfg = cookie, fn, onFail, cfg
	pp.dstMAC, pp.dstIP = dstMAC, dstIP
	pp.attempt, pp.timeout = 0, cfg.Timeout
	retriable := cfg.Timeout > 0 && cfg.Retries > 0
	if retriable {
		pp.prog.CopyFrom(tpp)
	}
	if !p.send(cookie, dstMAC, dstIP, tpp) && !retriable {
		// Nothing in flight and no timer to drive a retry: fail fast
		// so callers can unwind instead of leaking a cookie.
		p.release(pp)
		return cookie, false
	}
	p.pending[cookie] = pp
	if cfg.Timeout > 0 {
		sim := p.host.Sim
		if pp.deadline == nil {
			pp.deadline = sim.NewTimer(pp.expire)
		}
		pp.deadline.Reset(sim.Now() + pp.timeout)
	}
	return cookie, true
}

// entry takes a pending-probe entry off the free list, or makes one.
func (p *Prober) entry() *pendingProbe {
	n := len(p.free)
	if n == 0 {
		return &pendingProbe{p: p}
	}
	pp := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return pp
}

// release calls off a resolved entry's deadline — it was echoed,
// cancelled, forgotten or reaped — and puts the entry back on the free
// list.  The caller has already taken it out of pending.
func (p *Prober) release(pp *pendingProbe) {
	if pp.deadline != nil {
		pp.deadline.Stop()
	}
	pp.fn, pp.onFail = nil, nil
	p.free = append(p.free, pp)
}

// send builds and transmits one probe attempt: a pooled packet carrying
// a copy of tpp, the cookie in its payload.
func (p *Prober) send(cookie uint32, dstMAC core.MAC, dstIP uint32, tpp *core.TPP) bool {
	pkt := p.host.NewProbePooled(dstMAC, dstIP, EchoReplyPort, ProbeEchoPort, tpp)
	pkt.GrowPayload(4)
	pkt.Payload = binary.BigEndian.AppendUint32(pkt.Payload, cookie)
	if !p.host.Send(pkt) {
		return false
	}
	p.Sent++
	return true
}

// expire runs when an attempt's deadline passes with the probe still
// pending — an echo or Forget would have stopped the timer — and
// retransmits or reaps it.
func (pp *pendingProbe) expire() {
	p := pp.p
	if pp.attempt >= pp.cfg.Retries {
		delete(p.pending, pp.cookie)
		p.TimedOut++
		onFail := pp.onFail
		p.release(pp)
		if onFail != nil {
			onFail()
		}
		return
	}
	pp.attempt++
	pp.timeout *= 2
	p.Retransmits++
	// A dropped retransmission is handled like a lost one: the next
	// deadline fires the next attempt (or the reaper).
	p.send(pp.cookie, pp.dstMAC, pp.dstIP, &pp.prog)
	pp.deadline.Reset(p.host.Sim.Now() + pp.timeout)
}

// ProbeGroup sends several TPPs as one logical multi-packet program
// ("end-hosts can use multiple packets if a single packet is
// insufficient for a network task", §2) and calls fn once every member
// resolves, in sending order.  Members whose send was dropped, or that
// exhausted their deadline and retries, resolve as nil, so the group
// completes with partial results instead of leaking its callbacks.
// With the zero (legacy) ProbeConfig a lost echo never resolves; give
// the prober a Timeout to guarantee completion.  It returns false when
// no member could be registered at all (fn will then never run).
func (p *Prober) ProbeGroup(dstMAC core.MAC, dstIP uint32, tpps []*core.TPP, fn func([]*core.TPP)) bool {
	results := make([]*core.TPP, len(tpps))
	remaining := 0
	registered := make([]int, 0, len(tpps))
	resolve := func(i int, echoed *core.TPP) {
		results[i] = echoed
		remaining--
		if remaining == 0 {
			fn(results)
		}
	}
	for i, tpp := range tpps {
		i := i
		_, ok := p.ProbeCfg(dstMAC, dstIP, tpp, p.defaults,
			func(echoed *core.TPP) { resolve(i, echoed.Clone()) }, // results outlive the borrow
			func() { resolve(i, nil) })
		if ok {
			registered = append(registered, i)
		}
	}
	// Callbacks cannot have fired yet — sends only schedule simulator
	// events — so counting after the loop is race-free by construction.
	remaining = len(registered)
	return remaining > 0
}

// Forget drops the pending callback for every outstanding probe, and
// its deadline with it; used by periodic controllers that supersede
// unanswered probes.  Entries go back to the free list in cookie order.
func (p *Prober) Forget() {
	cookies := make([]uint32, 0, len(p.pending))
	for c := range p.pending { //lint:allow maporder (sorted below)
		cookies = append(cookies, c)
	}
	slices.Sort(cookies)
	for _, c := range cookies {
		p.release(p.pending[c])
	}
	clear(p.pending)
}

// onEcho parses an echo — the serialized executed TPP followed by the
// 4-byte cookie — into the prober's own p.echo, which the callback
// borrows; the host recycles the packet when onEcho returns.
//
//alloc:free
func (p *Prober) onEcho(pkt *core.Packet) {
	n, err := core.ParseTPP(pkt.Payload, &p.echo)
	if err != nil || len(pkt.Payload) < n+4 {
		p.Malformed++
		return
	}
	cookie := binary.BigEndian.Uint32(pkt.Payload[n:])
	pp, ok := p.pending[cookie]
	if !ok {
		return // superseded or duplicate
	}
	delete(p.pending, cookie)
	p.Matched++
	fn := pp.fn
	p.release(pp)
	fn(&p.echo)
	p.echo.Poison() // pooldebug: a kept echo reads poison; a no-op otherwise
}

// CollectProgram builds the canonical collect-phase probe: one PUSH per
// statistic per hop, with packet memory sized for maxHops hops.  It
// fails if the statistic list exceeds the device instruction limit —
// use SplitCollect to spread the list across multiple TPPs.
func CollectProgram(stats []mem.Addr, maxHops, insLimit int) (*core.TPP, error) {
	if len(stats) > insLimit {
		return nil, fmt.Errorf("endhost: %d statistics exceed the %d-instruction limit", len(stats), insLimit)
	}
	ins := make([]core.Instruction, len(stats))
	for i, a := range stats {
		ins[i] = core.Instruction{Op: core.OpPUSH, A: uint16(a)}
	}
	return core.NewTPP(core.AddrStack, ins, len(stats)*maxHops), nil
}

// SplitCollect splits a statistic list into as many collect TPPs as the
// instruction limit requires: the multi-packet TPP mechanism.
//
//api:paper the §2 multi-packet TPP, TestSplitCollect
func SplitCollect(stats []mem.Addr, maxHops, insLimit int) ([]*core.TPP, error) {
	if insLimit <= 0 {
		return nil, fmt.Errorf("endhost: instruction limit must be positive")
	}
	var out []*core.TPP
	for len(stats) > 0 {
		n := min(insLimit, len(stats))
		tpp, err := CollectProgram(stats[:n], maxHops, insLimit)
		if err != nil {
			return nil, err
		}
		out = append(out, tpp)
		stats = stats[n:]
	}
	return out, nil
}
