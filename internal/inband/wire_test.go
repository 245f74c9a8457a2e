package inband

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

// TestProgramWireBytes pins the writer's CSTORE attempt and the
// collector's sweep chunks byte for byte as they leave the NIC.
func TestProgramWireBytes(t *testing.T) {
	sim := netsim.New(1)
	h := endhost.NewHost(sim, core.MAC{2, 0, 0, 0, 0, 1}, 0x0a000001)
	tap := &wireTap{}
	h.NIC.Attach(netsim.NewChannel(sim, 1e9, 0, tap, 0))
	p := endhost.NewProber(h)
	spec := HistSpec{SwitchID: 7, Base: mem.SRAMBase + 16, Buckets: 5}
	dst, dstIP := core.MAC{2, 0, 0, 0, 0, 2}, uint32(0x0a000002)

	w := NewHistWriter(WriterConfig{Prober: p, DstMAC: dst, DstIP: dstIP, Spec: spec})
	w.want[3], w.shadow[3] = 12, 9
	w.pump()
	// A second attempt, as if the first had resolved, restamps the
	// bucket operand and cond/src.
	w.inFlight = false
	w.want[1], w.shadow[1] = 5, 4
	w.pump()
	c := NewCollector(CollectorConfig{Prober: p, DstMAC: dst, DstIP: dstIP, Spec: spec})
	c.Sweep()
	sim.Run()
	want := []string{
		// writer: CSTORE bucket 3, cond 9
		"01000103000600000000000006000000054130020100a005ffffffff00000007000000090000000affffffffffffffff",
		// writer: CSTORE bucket 1, cond 4
		"01000103000600000000000006000000054110020100a005ffffffff000000070000000400000005ffffffffffffffff",
		// collector: buckets 0..2
		"010001050006000000000000060000000100a002014100030141100401412005ffffffff00000007ffffffffffffffffffffffffffffffff",
		// collector: buckets 3..4
		"010001040005000000000000060000000100a0020141300301414004ffffffff00000007ffffffffffffffffffffffff",
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
