package wireless

import (
	"math"
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/netsim"
	"repro/internal/topo"
)

func TestOUProcessStatistics(t *testing.T) {
	sim := netsim.New(7)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 2})
	h := n.AddHost()
	port := n.LinkHost(h, sw, topo.Mbps(100, 0))

	cfg := DefaultAPConfig()
	ap := NewAP(sim, sw, port, cfg)

	var sum, sumsq float64
	samples := 0
	sim.Every(sim.Now()+netsim.Millisecond, netsim.Millisecond, func() {
		sum += ap.SNRdB()
		sumsq += ap.SNRdB() * ap.SNRdB()
		samples++
	})
	sim.RunUntil(20 * netsim.Second)

	mean := sum / float64(samples)
	std := math.Sqrt(sumsq/float64(samples) - mean*mean)
	if math.Abs(mean-cfg.MeanSNRdB) > 3 {
		t.Fatalf("mean SNR = %.1f dB, want ~%.0f", mean, cfg.MeanSNRdB)
	}
	// The channel must actually fluctuate (that is the point).
	if std < 1 {
		t.Fatalf("SNR std = %.2f dB: channel not fading", std)
	}
	if ap.Updates == 0 {
		t.Fatal("channel never advanced")
	}
}

func TestSNRRegisterVisibleToTPP(t *testing.T) {
	sim := netsim.New(7)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, topo.Mbps(100, 0))
	p2 := n.LinkHost(h2, sw, topo.Mbps(100, 0))
	n.PrimeL2(netsim.Millisecond)

	ap := NewAP(sim, sw, p2, DefaultAPConfig())
	sim.RunUntil(sim.Now() + 100*netsim.Millisecond)

	prober := endhost.NewProber(h1)
	var echoed *core.TPP
	var snrAtProbe float64
	prober.Probe(h2.MAC, h2.IP, SNRProgram(2), func(e *core.TPP) { echoed = e.Clone() })
	snrAtProbe = ap.SNRdB()
	sim.RunUntil(sim.Now() + 10*netsim.Millisecond)

	if echoed == nil {
		t.Fatal("no echo")
	}
	got := SNRFromCentiDB(echoed.Word(0))
	// The probe reads the register within a few channel updates of
	// our snapshot.
	if math.Abs(got-snrAtProbe) > 10 {
		t.Fatalf("probe read %.1f dB, channel was %.1f dB", got, snrAtProbe)
	}
	if got == 0 {
		t.Fatal("SNR register empty")
	}
}

func TestPerPacketSamplingTracksFastChannel(t *testing.T) {
	// The §2 claim: low-latency access to rapidly changing state.
	// Per-packet samples reconstruct the channel far better than
	// 100ms polling.
	sim := netsim.New(7)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, topo.Mbps(100, 0))
	p2 := n.LinkHost(h2, sw, topo.Mbps(100, 0))
	n.PrimeL2(netsim.Millisecond)
	ap := NewAP(sim, sw, p2, DefaultAPConfig())

	var perPacketErr, polledErr, count float64
	polled := ap.SNRdB()
	sim.Every(sim.Now()+100*netsim.Millisecond, 100*netsim.Millisecond, func() {
		polled = ap.SNRdB()
	})
	h2.HandleDefault(func(pkt *core.Packet) {
		if pkt.TPP == nil {
			return
		}
		truth := ap.SNRdB()
		sample := SNRFromCentiDB(pkt.TPP.Word(0))
		perPacketErr += math.Abs(sample - truth)
		polledErr += math.Abs(polled - truth)
		count++
	})
	// One annotated packet per millisecond for 10 seconds.
	sim.Every(sim.Now()+netsim.Millisecond, netsim.Millisecond, func() {
		pkt := h1.NewPacket(h2.MAC, h2.IP, 1, 2, 100)
		pkt.TPP = SNRProgram(2)
		pkt.Eth.Type = core.EtherTypeTPP
		h1.Send(pkt)
	})
	sim.RunUntil(sim.Now() + 10*netsim.Second)

	if count == 0 {
		t.Fatal("no annotated packets arrived")
	}
	perPacketErr /= count
	polledErr /= count
	if perPacketErr >= polledErr {
		t.Fatalf("per-packet error %.2f dB not better than polling %.2f dB",
			perPacketErr, polledErr)
	}
	// And not just marginally: the fast path should be several times
	// more accurate on a fast-fading channel.
	if polledErr < 2*perPacketErr {
		t.Fatalf("improvement too small: per-packet %.2f dB vs polled %.2f dB",
			perPacketErr, polledErr)
	}
}
