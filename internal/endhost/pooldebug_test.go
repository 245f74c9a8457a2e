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
