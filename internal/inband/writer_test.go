package inband

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// TestHistWriterStartsAtEpochZero: the writer assumes the window starts
// in the switch's first boot, so a writer built against a switch that
// already rebooted once re-bases on its first conclusive echo — and,
// because that echo is read as a wipe, its value is not counted as a
// foreign write.
func TestHistWriterStartsAtEpochZero(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{ID: 5, Ports: 4})
	src, dst := n.AddHost(), n.AddHost()
	n.LinkHost(src, sw, topo.Mbps(100, 50*netsim.Microsecond))
	n.LinkHost(dst, sw, topo.Mbps(100, 50*netsim.Microsecond))
	sw.Reboot(netsim.Millisecond)
	sim.RunUntil(5 * netsim.Millisecond)
	n.PrimeL2(5 * netsim.Millisecond)
	if sw.Epoch() != 1 {
		t.Fatalf("switch epoch = %d, want 1", sw.Epoch())
	}

	w := NewHistWriter(WriterConfig{
		Prober: endhost.NewProber(src), DstMAC: dst.MAC, DstIP: dst.IP,
		Spec: HistSpec{SwitchID: sw.ID(), Base: mem.SRAMBase, Buckets: 4},
	})
	w.Observe(1)
	sim.RunUntil(sim.Now() + 10*netsim.Millisecond)
	if !w.Drained() {
		t.Fatalf("writer not drained (pending %d)", w.PendingSamples())
	}
	if w.Rebases() != 1 || w.Adopted != 0 {
		t.Fatalf("Rebases = %d, Adopted = %d, want 1 and 0", w.Rebases(), w.Adopted)
	}
}
