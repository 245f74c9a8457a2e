//go:build pooldebug

package endhost

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
)

// A sink that stashes its packet breaks the borrow: the host recycles
// the packet when the sink returns, and the sanitizer names that
// recycle — the host's, not some later reuse — at the first touch.
func TestSinkMustNotRetain(t *testing.T) {
	sim := netsim.New(1)
	a, b := pair(sim, 8_000_000)
	var stash *core.Packet
	b.Sink(2, func(p *core.Packet) { stash = p })
	a.Send(a.NewPacketPooled(b.MAC, b.IP, 1, 2, 100))
	sim.Run()
	if stash == nil {
		t.Fatal("sink never ran")
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "recycled at") || !strings.Contains(msg, "endhost/host.go") {
			t.Fatalf("touching a stashed sink packet: %q, want a panic naming the recycle in endhost/host.go", msg)
		}
	}()
	stash.WireLen()
}

// An echo callback borrows the prober's echo TPP.  Under the sanitizer
// the prober poisons it when the callback returns, so a callback that
// keeps e reads canary words and opcodes; one that keeps e.Clone()
// reads what the switch wrote.
func TestEchoMustNotRetain(t *testing.T) {
	sim := netsim.New(1)
	_, hosts := star(sim, 2)
	a, b := hosts[0], hosts[1]
	p := NewProber(a)
	var kept, cloned *core.TPP
	p.Probe(b.MAC, b.IP, switchIDProg(1), func(e *core.TPP) { kept, cloned = e, e.Clone() })
	sim.RunUntil(netsim.Millisecond)
	if cloned == nil {
		t.Fatal("echo never arrived")
	}
	if cloned.Word(0) != 7 || cloned.Ins[0].Op != core.OpPUSH {
		t.Fatalf("cloned echo: word 0 = %#x, op %v; want switch ID 7 under PUSH", cloned.Word(0), cloned.Ins[0].Op)
	}
	if kept.Word(0) != 0xdddddddd || kept.Ins[0].Op == core.OpPUSH {
		t.Fatalf("kept echo: word 0 = %#x, op %v; want the poison pattern", kept.Word(0), kept.Ins[0].Op)
	}
}
