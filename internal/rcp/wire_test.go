package rcp

import (
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/netsim"
)

// wireTap records the TPP section of every frame a NIC puts on its link.
type wireTap struct{ progs []string }

func (w *wireTap) Receive(pkt *core.Packet, _ int) {
	w.progs = append(w.progs, hex.EncodeToString(pkt.TPP.AppendTo(nil)))
	pkt.Recycle()
}

// TestUpdateWireBytes pins the phase-3 rate update byte for byte as it
// leaves the NIC, stack pointer 12 included, across two updates that
// restamp the gated switch and the rate.
func TestUpdateWireBytes(t *testing.T) {
	sim := netsim.New(1)
	h := endhost.NewHost(sim, core.MAC{2, 0, 0, 0, 0, 1}, 0x0a000001)
	tap := &wireTap{}
	h.NIC.Attach(netsim.NewChannel(sim, 1e9, 0, tap, 0))
	c := NewStarController(sim, h, endhost.NewProber(h), core.MAC{2, 0, 0, 0, 0, 2}, 0x0a000002)
	c.sendUpdate(3, 1.25e6)
	c.sendUpdate(4, 1e12)
	sim.Run()
	want := []string{
		// switch 3, 1.25 MB/s
		"010001020003000c000000000600000002108002ffffffff00000003001312d0",
		// switch 4, rate clipped to 2^32-1
		"010001020003000c000000000600000002108002ffffffff00000004ffffffff",
	}
	if len(tap.progs) != len(want) {
		t.Fatalf("%d programs on the wire, want %d", len(tap.progs), len(want))
	}
	for i, got := range tap.progs {
		if got != want[i] {
			t.Errorf("update %d on the wire:\n got %s\nwant %s", i, got, want[i])
		}
	}
}
