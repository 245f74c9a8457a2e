package asic_test

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// TestEngineStatsLineBurst pins what the lanes do to the event queue,
// as counts the simulator reports about itself: a 4096-packet burst of
// minimum frames over five switches at 100 Gb/s keeps hundreds of
// packets outstanding (each link into a switch holds its pipeline
// latency's worth of line rate), yet the heap never holds more than one
// key per busy link.
func TestEngineStatsLineBurst(t *testing.T) {
	const (
		switches = 5
		burst    = 4096
	)
	sim := netsim.New(1)
	link := topo.Mbps(100_000, 0)
	n, src, dst, _ := topo.Line(sim, switches, link, link, topo.Uniform(asic.Config{Ports: 4}), nil)
	n.PrimeL2(5 * netsim.Millisecond)
	src.NIC.SetCapacity(burst)

	if wire := src.NewPacket(dst.MAC, dst.IP, 1000, 2000, 22).WireLen(); wire != 64 {
		t.Fatalf("frame is %d bytes, want the 64-byte minimum", wire)
	}
	before := sim.Stats()
	for i := 0; i < burst; i++ {
		if !src.Send(src.NewPacket(dst.MAC, dst.IP, 1000, 2000, 22)) {
			t.Fatalf("NIC refused packet %d", i)
		}
	}
	delivered := dst.Received
	sim.RunUntil(sim.Now() + netsim.Millisecond) // well short of the next housekeeping tick
	if got := dst.Received - delivered; got != burst {
		t.Fatalf("delivered %d of %d", got, burst)
	}

	st := sim.Stats()
	// One event per link crossed — a switch hop is the link's delivery
	// once the pipeline latency has elapsed — and the NIC's
	// transmit-complete for every frame but the last, which leaves
	// none waiting.  Each switch's egress is idle when a frame reaches
	// it, so no switch asks for one.
	if got, want := st.Executed-before.Executed, uint64(burst*(switches+2)-1); got != want {
		t.Fatalf("burst executed %d events, want %d", got, want)
	}
	if st.PendingPeak < 500 {
		t.Fatalf("pending peak %d: the burst should keep >= 500 events outstanding", st.PendingPeak)
	}
	if st.HeapPeak > 16 {
		t.Fatalf("heap peak %d with pending peak %d: lane-held events are leaking into the heap", st.HeapPeak, st.PendingPeak)
	}
	t.Logf("executed %d, pending peak %d, heap peak %d", st.Executed-before.Executed, st.PendingPeak, st.HeapPeak)
}
