package microburst

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
)

func TestDetectorEpisodeExtraction(t *testing.T) {
	d := NewDetector(1000, 10*netsim.Millisecond)
	ms := func(m int) netsim.Time { return netsim.Time(m) * netsim.Millisecond }

	// Burst 1: three samples above threshold.
	d.Observe(ms(0), 1500)
	d.Observe(ms(1), 2500)
	d.Observe(ms(2), 1200)
	// Below threshold: not part of any burst.
	d.Observe(ms(3), 100)
	// Burst 2 after a long quiet period.
	d.Observe(ms(50), 3000)
	d.Observe(ms(51), 1000)

	eps := d.Episodes()
	if len(eps) != 2 {
		t.Fatalf("episodes = %d: %+v", len(eps), eps)
	}
	if eps[0].Peak != 2500 || eps[0].Samples != 3 || eps[0].Duration() != ms(2) {
		t.Fatalf("episode 1: %+v", eps[0])
	}
	if eps[1].Peak != 3000 || eps[1].Samples != 2 {
		t.Fatalf("episode 2: %+v", eps[1])
	}
	if d.Peak != 3000 || d.Observed != 6 {
		t.Fatalf("detector stats: peak=%d observed=%d", d.Peak, d.Observed)
	}
}

func TestDetectorGapSplitsEpisodes(t *testing.T) {
	d := NewDetector(1000, 5*netsim.Millisecond)
	d.Observe(0, 2000)
	d.Observe(20*netsim.Millisecond, 2000) // > maxGap: separate burst
	if eps := d.Episodes(); len(eps) != 2 {
		t.Fatalf("episodes = %d", len(eps))
	}
}

func TestDetectorBelowThresholdNoEpisodes(t *testing.T) {
	d := NewDetector(1000, netsim.Millisecond)
	for i := 0; i < 100; i++ {
		d.Observe(netsim.Time(i)*netsim.Millisecond, 500)
	}
	if len(d.Episodes()) != 0 {
		t.Fatal("idle traffic produced episodes")
	}
}

func TestHopQueues(t *testing.T) {
	tpp := TelemetryProgram(4)
	tpp.SetWord(0, 10)
	tpp.SetWord(1, 20)
	tpp.Ptr = 8 // two hops recorded
	qs := HopQueues(tpp)
	if len(qs) != 2 || qs[0] != 10 || qs[1] != 20 {
		t.Fatalf("HopQueues = %v", qs)
	}
}

func TestInstrument(t *testing.T) {
	pkt := &core.Packet{Eth: core.Ethernet{Type: core.EtherTypeIPv4}}
	Instrument(pkt, 5)
	if pkt.TPP == nil || pkt.Eth.Type != core.EtherTypeTPP {
		t.Fatal("Instrument did not attach a TPP")
	}
	if pkt.TPP.MemWords() != 5 {
		t.Fatalf("memory = %d words", pkt.TPP.MemWords())
	}
}

func TestIncastExperimentShape(t *testing.T) {
	// The headline §2.1 claim: per-packet TPP telemetry catches the
	// micro-bursts; 1-second polling misses nearly all of them.
	cfg := DefaultConfig()
	cfg.Bursts = 30
	res := Run(cfg)

	if res.TelemetrySamples == 0 {
		t.Fatal("no telemetry arrived")
	}
	if rate := res.DetectionRateTPP(); rate < 0.9 {
		t.Fatalf("TPP detection rate = %.2f, want >= 0.9 (episodes=%d/%d)",
			rate, len(res.Episodes), res.BurstsGenerated)
	}
	if rate := res.DetectionRatePoller(); rate > 0.3 {
		t.Fatalf("poller detection rate = %.2f, want << 1", rate)
	}
	if res.TelemetryPeak < threshold {
		t.Fatalf("telemetry peak = %d below threshold", res.TelemetryPeak)
	}
	if res.TelemetryPeak < res.PollerPeak {
		t.Fatalf("telemetry peak %d < poller peak %d", res.TelemetryPeak, res.PollerPeak)
	}
	// Bursts are micro: 15KB x 8 drains in ~10ms at 100 Mb/s, so mean
	// episode duration must be well under the 100ms period.
	if res.MeanEpisodeUs <= 0 || res.MeanEpisodeUs > 50_000 {
		t.Fatalf("mean episode duration = %.0fus", res.MeanEpisodeUs)
	}
}

func TestIncastDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bursts = 5
	a := Run(cfg)
	b := Run(cfg)
	if a.TelemetrySamples != b.TelemetrySamples || len(a.Episodes) != len(b.Episodes) ||
		a.TelemetryPeak != b.TelemetryPeak {
		t.Fatal("same seed produced different results")
	}
}

func TestSamplingDensitySweep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bursts = 20
	points := SweepDensity(cfg, []int{1, 4, 64, 1024})
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	// Per-packet telemetry catches everything; sparse sampling decays.
	if points[0].DetectionRate < 0.9 {
		t.Fatalf("per-packet detection = %.2f", points[0].DetectionRate)
	}
	if points[3].DetectionRate >= points[0].DetectionRate {
		t.Fatalf("1/1024 sampling (%.2f) not worse than per-packet (%.2f)",
			points[3].DetectionRate, points[0].DetectionRate)
	}
	// Sample counts shrink with the sampling period.
	if points[1].Samples >= points[0].Samples || points[3].Samples >= points[1].Samples {
		t.Fatalf("sample counts not decreasing: %d, %d, %d",
			points[0].Samples, points[1].Samples, points[3].Samples)
	}
}
