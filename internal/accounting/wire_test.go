package accounting

import (
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/netsim"
)

// wireTap records the TPP section of every frame a NIC puts on its link.
type wireTap struct{ progs []string }

func (w *wireTap) Receive(pkt *core.Packet, _ int) {
	w.progs = append(w.progs, hex.EncodeToString(pkt.TPP.AppendTo(nil)))
	pkt.Recycle()
}

// TestProgramWireBytes pins the counter's read, atomic write and racy
// write programs byte for byte as they leave the NIC: the CEXEC gate,
// its mask and switch-id words, the stamped operands and the sentinel
// result slots.
func TestProgramWireBytes(t *testing.T) {
	sim := netsim.New(1)
	h := endhost.NewHost(sim, core.MAC{2, 0, 0, 0, 0, 1}, 0x0a000001)
	tap := &wireTap{}
	h.NIC.Attach(netsim.NewChannel(sim, 1e9, 0, tap, 0))
	p := endhost.NewProber(h)
	dst, dstIP := core.MAC{2, 0, 0, 0, 0, 2}, uint32(0x0a000002)
	atomic := NewCounter(p, dst, dstIP, 5, mem.SRAMBase+3, Atomic)
	racy := NewCounter(p, dst, dstIP, 5, mem.SRAMBase+3, Racy)
	atomic.Poll(nil)
	for _, c := range []*Counter{atomic, racy} {
		o := c.take(addWrite)
		o.old, o.n = 41, 2
		o.send()
	}
	sim.Run()
	want := []string{
		// read
		"01000103000400000000000006000000014030020100a003ffffffff00000005ffffffffffffffff",
		// atomic write
		"0100010200050000000000000600000005403002ffffffff00000005000000290000002bffffffff",
		// racy write
		"0100010200030000000000000600000002403002ffffffff000000050000002b",
	}
	if len(tap.progs) != len(want) {
		t.Fatalf("%d programs on the wire, want %d", len(tap.progs), len(want))
	}
	for i, got := range tap.progs {
		if got != want[i] {
			t.Errorf("program %d on the wire:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// scriptedEcho stands in for the network: it hands every attempt that
// leaves the NIC straight back to the op as its echo, executed at the
// gated switch only where run says so, and logs when each arrived.
type scriptedEcho struct {
	sim *netsim.Sim
	o   *op
	run func(attempt int, e *core.TPP) // nil: inconclusive
	at  []netsim.Time
}

func (s *scriptedEcho) Receive(pkt *core.Packet, _ int) {
	e := pkt.TPP.Clone()
	pkt.Recycle()
	s.at = append(s.at, s.sim.Now())
	s.run(len(s.at)-1, e)
	s.o.onEcho(e)
}

// TestInconclusiveBackoff: an inconclusive echo defers the op's next
// attempt by endhost.RetryBackoff of the attempts its phase has burned
// — 2 ms, then 4 — and the write phase starts its budget, and so its
// schedule, afresh.
func TestInconclusiveBackoff(t *testing.T) {
	sim := netsim.New(1)
	h := endhost.NewHost(sim, core.MAC{2, 0, 0, 0, 0, 1}, 0x0a000001)
	c := NewCounter(endhost.NewProber(h), core.MAC{2, 0, 0, 0, 0, 2}, 0x0a000002, 5, mem.SRAMBase, Atomic)
	var done uint32
	o := c.take(addRead)
	o.n, o.done = 1, func(v uint32) { done = v }
	echo := &scriptedEcho{sim: sim, o: o, run: func(k int, e *core.TPP) {
		switch k {
		case 2: // the read executes: value 5 in boot epoch 0
			e.SetWord(2, 5)
			e.SetWord(3, 0)
		case 4: // the CSTORE executes and finds its cond
			e.SetWord(4, e.Word(2))
		}
	}}
	h.NIC.Attach(netsim.NewChannel(sim, 1e9, 0, echo, 0))
	o.send()
	sim.Run()

	wire := echo.at[0] // one attempt's time from send to the tap
	want := []netsim.Time{2, 4, 0, 2}
	if len(echo.at) != len(want)+1 {
		t.Fatalf("%d attempts, want %d", len(echo.at), len(want)+1)
	}
	for k, ms := range want {
		if gap := echo.at[k+1] - echo.at[k] - wire; gap != ms*netsim.Millisecond {
			t.Errorf("attempt %d left %v after attempt %d's echo, want %d ms", k+1, gap, k, ms)
		}
	}
	if done != 6 || c.Inconclusive != 3 {
		t.Fatalf("done(%d), Inconclusive = %d, want done(6) and 3", done, c.Inconclusive)
	}
}
