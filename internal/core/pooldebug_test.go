//go:build pooldebug

package core

import (
	"strings"
	"testing"
)

// mustPanic runs fn and asserts it panics with a message containing
// every substring in want.
func mustPanic(t *testing.T, fn func(), want ...string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want string", r, r)
		}
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Fatalf("panic %q does not mention %q", msg, w)
			}
		}
	}()
	fn()
}

// A reference issued before a Recycle must trip every instrumented
// accessor, and the panic must name the recycling call site.
func TestPooldebugUseAfterRecycle(t *testing.T) {
	for _, tc := range []struct {
		op  string
		use func(p *Packet)
	}{
		{"WireLen", func(p *Packet) { p.WireLen() }},
		{"Serialize", func(p *Packet) { p.Serialize() }},
		{"Clone", func(p *Packet) { p.Clone() }},
		{"Pool.Clone", func(p *Packet) { new(Pool).Clone(p) }},
		{"Adopt", func(p *Packet) { p.Adopt() }},
	} {
		c := new(Pool).Clone(poolFixture())
		c.Recycle()
		mustPanic(t, func() { tc.use(c) }, tc.op, "recycled at", "pooldebug_test.go")
	}
}

// Recycling twice panics (instead of release's silent no-op): the
// second call necessarily runs through a stale reference.
func TestPooldebugDoubleRecycle(t *testing.T) {
	c := new(Pool).Clone(poolFixture())
	c.Recycle()
	mustPanic(t, c.Recycle, "already recycled at", "pooldebug_test.go")
}

// Recycling a shallow copy of a live pooled packet is the aliasing
// violation pool.go's rules forbid; the sanitizer escalates release's
// defensive abandon to a panic.
func TestPooldebugShallowCopyRecycle(t *testing.T) {
	c := new(Pool).Clone(poolFixture())
	sc := *c
	mustPanic(t, sc.Recycle, "shallow copy")
	c.Adopt() // keep the resident packet legal for later slots
}

// A write through a stale alias while the slot sits in the pool must
// be caught by the canary check when the slot is next handed out.
func TestPooldebugCanaryClobber(t *testing.T) {
	var pool Pool
	c := pool.Clone(poolFixture())
	stale := c.Payload // alias the slot's payload buffer
	c.Recycle()
	stale[0] = 'X' // the violation: writing after the death point
	// The next draw — either kind — gets the clobbered slot back.
	mustPanic(t, func() { pool.NewUDP(Ethernet{}, IPv4{}, UDP{}) },
		"clobbered after Recycle", "pooldebug_test.go")
}

// The legal lifecycle — clone, forward, recycle, reuse; adopt and
// retain — must run clean under the sanitizer.
func TestPooldebugCleanLifecycle(t *testing.T) {
	var pool Pool
	src := poolFixture()
	for i := 0; i < 100; i++ {
		c := pool.Clone(src)
		if i%3 == 0 {
			c.Recycle()
			c = pool.NewUDP(src.Eth, *src.IP, *src.UDP)
			c.Payload = append(c.Payload, 1, 2, 3, 4)
		}
		_ = c.WireLen()
		if i%2 == 0 {
			c.Recycle()
		} else {
			c.Adopt()
			_ = c.Serialize()
		}
	}
}

// Poison covers buffer capacity, not just length: a stale alias
// re-sliced beyond the live length is still caught.
func TestPooldebugPoisonCoversCapacity(t *testing.T) {
	c := new(Pool).Clone(poolFixture())
	buf := c.TPP.Mem
	c.Recycle()
	if cap(buf) == 0 {
		t.Skip("fixture has no packet memory capacity")
	}
	full := buf[:cap(buf)]
	for i, b := range full {
		if b != poisonByte {
			t.Fatalf("Mem[%d] = %#x after Recycle, want poison %#x", i, b, poisonByte)
		}
	}
}
