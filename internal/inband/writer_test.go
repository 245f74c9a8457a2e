package inband

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
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

// scriptedEcho stands in for the network: it hands every attempt that
// leaves the writer's NIC straight back to the writer as its echo, as
// executed at the home switch only where conclusive says so, and logs
// when each attempt arrived.
type scriptedEcho struct {
	sim        *netsim.Sim
	w          *HistWriter
	conclusive func(attempt int) bool
	max        int
	at         []netsim.Time
}

func (s *scriptedEcho) Receive(pkt *core.Packet, _ int) {
	e := pkt.TPP.Clone()
	pkt.Recycle()
	s.at = append(s.at, s.sim.Now())
	if len(s.at) > s.max {
		return
	}
	if s.conclusive(len(s.at) - 1) {
		e.SetWord(4, e.Word(2)) // the CSTORE found cond
		e.SetWord(5, 0)         // boot epoch
	}
	s.w.onEcho(e)
}

// TestWriterRetryBackoff: each inconclusive echo defers the next
// attempt by endhost.RetryBackoff of the misses since the last
// conclusive echo — 2 ms doubling to a 64 ms cap — and a conclusive
// echo sends the next attempt at once and starts the schedule over.
func TestWriterRetryBackoff(t *testing.T) {
	sim := netsim.New(1)
	h := endhost.NewHost(sim, core.MAC{2, 0, 0, 0, 0, 1}, 0x0a000001)
	w := NewHistWriter(WriterConfig{Prober: endhost.NewProber(h),
		DstMAC: core.MAC{2, 0, 0, 0, 0, 2}, DstIP: 0x0a000002,
		Spec: HistSpec{SwitchID: 7, Base: mem.SRAMBase, Buckets: 2}})
	echo := &scriptedEcho{sim: sim, w: w, max: 10, conclusive: func(k int) bool { return k == 8 }}
	h.NIC.Attach(netsim.NewChannel(sim, 1e9, 0, echo, 0))
	w.want[0] = 2
	w.pump()
	sim.Run()

	wire := echo.at[0] // one attempt's time from pump to the tap
	want := []netsim.Time{2, 4, 8, 16, 32, 64, 64, 64, 0, 2}
	if len(echo.at) != len(want)+1 {
		t.Fatalf("%d attempts, want %d", len(echo.at), len(want)+1)
	}
	for k, ms := range want {
		if gap := echo.at[k+1] - echo.at[k] - wire; gap != ms*netsim.Millisecond {
			t.Errorf("attempt %d left %v after attempt %d's echo, want %d ms", k+1, gap, k, ms)
		}
	}
	if w.Inconclusive != 9 || w.Applied != 1 {
		t.Fatalf("Inconclusive = %d, Applied = %d, want 9 and 1", w.Inconclusive, w.Applied)
	}
}
