// Package accounting makes §2.2's consistency discussion concrete:
// "With multiple concurrent writers to a shared switch memory, one
// might wonder if there could be race conditions ... While this is a
// legitimate concern for network tasks such as accounting ... we
// support a conditional store instruction to provide a stronger
// (linearizable) notion of consistency for memory updates."
//
// A Counter is a shared 32-bit tally in switch SRAM that multiple
// end-hosts increment concurrently through the network.  Two update
// protocols are provided:
//
//   - Atomic: optimistic concurrency over CSTORE — read the counter
//     with one TPP, then attempt CSTORE(old, old+n) with another,
//     retrying when a concurrent writer got there first.  No update is
//     ever lost.
//   - Racy: the naive LOAD-then-STORE pair.  Interleaved writers
//     overwrite each other and updates vanish — the failure mode the
//     CSTORE instruction exists to prevent.
package accounting

import (
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/mem"
)

// Protocol selects the update discipline.
type Protocol int

// The two update protocols.
const (
	Atomic Protocol = iota // CSTORE with retry
	Racy                   // blind read-modify-write
)

// DefaultRetries bounds the CSTORE retry loop per Add.
const DefaultRetries = 16

// Counter is an end-host handle onto a shared SRAM tally reachable
// through probes toward (dstMAC, dstIP); the counter lives at addr on
// every switch along the path, gated to one switch by CEXEC.
//
// A Counter builds its two programs once and keeps its operations on a
// free list, so a warm Add or Poll allocates nothing: a send stamps the
// words that vary and the prober sends a copy.
type Counter struct {
	prober *endhost.Prober
	dstMAC core.MAC
	dstIP  uint32
	proto  Protocol

	// read and write are the counter's two programs (endhost.Gated).
	read, write *core.TPP
	// free holds idle operations, reused LIFO.
	free []*op

	// Retries counts CSTORE conflicts that forced another round trip.
	Retries uint64
	// Failures counts Adds abandoned after DefaultRetries conflicts.
	Failures uint64
	// Inconclusive counts echoes that came back without having
	// executed at the gated switch (throttled or stripped en route);
	// each one is retried rather than trusted.
	Inconclusive uint64

	// polls is the tally as a one-word region, so Poll's deltas survive
	// a switch crash-restart wiping it back to zero.
	polls endhost.WordPoller
}

// NewCounter builds a handle for the tally at SRAM address addr on the
// switch with the given id, along the path toward (dstMAC, dstIP).
//
// Both programs are built once by endhost.Gated.  The read program
// fetches the value and the switch's boot epoch in one gated TPP:
//
//	CEXEC [Switch:SwitchID], 0xFFFFFFFF, $switchID
//	LOAD  [addr], [Packet:2]
//	LOAD  [Switch:Epoch], [Packet:3]
//
// The write program is the same gate, then CSTORE(addr, cond=[Packet:2],
// src=[Packet:3]), which leaves the value it found in [Packet:4]
// (Atomic), or a blind STORE of [Packet:2] (Racy).
func NewCounter(prober *endhost.Prober, dstMAC core.MAC, dstIP uint32,
	switchID uint32, addr mem.Addr, proto Protocol) *Counter {
	read := endhost.Gated(switchID, 4,
		core.Instruction{Op: core.OpLOAD, A: uint16(addr), B: 2},
		core.Instruction{Op: core.OpLOAD, A: uint16(mem.SwitchBase + mem.SwitchEpoch), B: 3})
	var write *core.TPP
	if proto == Atomic {
		write = endhost.Gated(switchID, 5, core.Instruction{Op: core.OpCSTORE, A: uint16(addr), B: 2})
	} else {
		write = endhost.Gated(switchID, 3, core.Instruction{Op: core.OpSTORE, A: uint16(addr), B: 2})
	}
	return &Counter{prober: prober, dstMAC: dstMAC, dstIP: dstIP, proto: proto,
		read: read, write: write}
}

// phase is where an operation stands.
type phase uint8

const (
	pollRead phase = iota // Poll's read
	addRead               // Add's read, before its write
	addWrite              // Add's CSTORE (Atomic) or STORE (Racy)
)

// op is one Add or Poll in flight.  It binds its handlers once, when it
// is made, and goes back on its counter's free list on every terminal
// path — resolved, budget exhausted, reaped by the prober, or refused
// at send — before the caller's callback runs, so a callback that calls
// Add again may reuse it.
type op struct {
	c      *Counter
	phase  phase
	budget int    // attempts left in this phase
	old, n uint32 // expected value and increment (addWrite)
	done   func(uint32)
	poll   func(value uint32, delta int64, discont bool)

	// o.onEcho, o.reaped and o.retry bound once: a method value made
	// per send is a heap closure each.
	onEchoFn func(*core.TPP)
	reapedFn func()
	retryFn  func()
}

// take draws an op for a new operation starting in phase ph.
func (c *Counter) take(ph phase) *op {
	var o *op
	if n := len(c.free); n > 0 {
		o = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		o = &op{c: c}
		o.onEchoFn, o.reapedFn, o.retryFn = o.onEcho, o.reaped, o.retry
	}
	o.phase, o.budget = ph, DefaultRetries
	return o
}

// release puts a finished op back on the free list.
func (c *Counter) release(o *op) {
	o.done, o.poll = nil, nil
	c.free = append(c.free, o)
}

// Add increments the shared counter by n; done (optional) runs with the
// value the counter held after this update was applied (or the last
// observed value if the update was abandoned).
func (c *Counter) Add(n uint32, done func(uint32)) {
	o := c.take(addRead)
	o.n, o.done = n, done
	o.send()
}

// Poll reads the counter and reports the change since the previous
// Poll.  A switch crash-restart wipes the tally back to zero; without
// the epoch word a poller would compute a large negative delta and
// corrupt any rate estimate built on it.  Poll instead folds each read
// through an endhost.WordPoller: discont is true (and the delta
// re-based to the increments accumulated since the wipe) whenever the
// boot epoch changed — or, belt-and-braces, whenever the value ran
// backwards.  The first Poll is a baseline: delta 0, discont false.
func (c *Counter) Poll(fn func(value uint32, delta int64, discont bool)) {
	o := c.take(pollRead)
	o.poll = fn
	o.send()
}

// Discontinuities counts Polls that found the counter re-based — the
// switch rebooted (epoch bump) or the value ran backwards.
func (c *Counter) Discontinuities() uint64 { return c.polls.Rebases }

// send stamps the operands of a write and probes with the op's program.
// Result slots hold the sentinel Gated put there — the prober sends a
// copy, so nothing overwrites them — and an echo that never executed
// at the gated switch reads as inconclusive.
//
//alloc:free
func (o *op) send() {
	c := o.c
	t := c.read
	if o.phase == addWrite {
		t = c.write
		if c.proto == Atomic {
			t.SetWord(2, o.old)     // cond
			t.SetWord(3, o.old+o.n) // src
		} else {
			t.SetWord(2, o.old+o.n)
		}
	}
	if _, ok := c.prober.ProbeCfg(c.dstMAC, c.dstIP, t, c.prober.Defaults(), o.onEchoFn, o.reapedFn); !ok {
		c.release(o)
	}
}

// retry spends one more attempt of the phase's budget.
func (o *op) retry() {
	o.budget--
	o.send()
}

// reaped runs when the prober gives up on the op's probe: the operation
// ends without a callback, as a lost echo always has.
func (o *op) reaped() { o.c.release(o) }

// onEcho advances the op by one echo.
//
//alloc:free
func (o *op) onEcho(e *core.TPP) {
	c := o.c
	if o.phase != addWrite {
		value, epoch := e.Word(2), e.Word(3)
		if value == endhost.Unexecuted && epoch == endhost.Unexecuted {
			// The read never executed at the gated switch: retry after
			// a backoff, or drop it once the budget is spent — the
			// caller's next cycle re-reads anyway.
			c.Inconclusive++
			if o.budget > 1 {
				c.prober.After(endhost.RetryBackoff(DefaultRetries-o.budget), o.retryFn)
			} else {
				c.release(o)
			}
			return
		}
		if o.phase == addRead {
			o.phase, o.budget, o.old = addWrite, DefaultRetries, value
			o.send()
			return
		}
		first := !c.polls.Seen()
		delta, discont := c.polls.Fold(epoch, value)
		if first {
			delta = 0
		}
		fn := o.poll
		c.release(o)
		if fn != nil {
			fn(value, int64(delta), discont)
		}
		return
	}
	if c.proto == Racy {
		o.finish(o.old + o.n)
		return
	}
	switch observed := e.Word(4); observed {
	case endhost.Unexecuted:
		// The CSTORE never ran at the gated switch (throttled or
		// stripped en route): the attempt is inconclusive, not lost —
		// retry with the same expected value.
		c.Inconclusive++
		if o.budget <= 1 {
			c.Failures++
			o.finish(o.old)
			return
		}
		c.prober.After(endhost.RetryBackoff(DefaultRetries-o.budget), o.retryFn)
	case o.old:
		o.finish(o.old + o.n)
	default:
		// Lost the race: retry from the freshly observed value.
		c.Retries++
		if o.budget <= 1 {
			c.Failures++
			o.finish(observed)
			return
		}
		o.old = observed
		o.retry()
	}
}

// finish ends an Add with value v: the op goes back on the free list,
// then done runs.
func (o *op) finish(v uint32) {
	c, done := o.c, o.done
	c.release(o)
	if done != nil {
		done(v)
	}
}
