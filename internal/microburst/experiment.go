package microburst

import (
	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

// The micro-burst experiment is an 8-to-1 incast (the canonical
// datacenter source of micro-bursts) of 15 KB bursts every 100ms on a
// star of 100 Mb/s links, observed simultaneously by per-packet TPP
// telemetry and by a 1-second poller.
const (
	Senders    = 8                        // incast fan-in
	BurstBytes = 15_000                   // bytes each sender contributes per burst
	Period     = 100 * netsim.Millisecond // burst repetition period
	PollEvery  = netsim.Second            // baseline polling interval

	edgeMbps    = 100                      // link speed
	threshold   = 10_000                   // burst threshold, bytes of queue
	jitterMax   = 200 * netsim.Microsecond // per-sender start jitter within a burst
	packetBytes = 958                      // payload bytes per data packet
)

// Config parameterizes the micro-burst experiment.
type Config struct {
	Bursts int // number of synchronized bursts
	// SampleEvery instruments every k-th data packet with the
	// telemetry TPP (1 = per-packet, the §2.1 design point; larger
	// values model cheaper, sparser sampling).  Zero means 1.
	SampleEvery int

	// Metrics and Trace thread the telemetry subsystem through the
	// switch and register the detector's queue-depth histogram under
	// microburst/queue_depth_bytes; both may be nil.
	Metrics *obs.Registry
	Trace   *obs.Tracer
}

// DefaultConfig is the canonical run: 50 bursts.
func DefaultConfig() Config {
	return Config{Bursts: 50}
}

// Result summarizes one run.
type Result struct {
	Config           Config
	BurstsGenerated  int
	Episodes         []Episode // bursts the TPP telemetry detected
	TelemetrySamples int
	TelemetryPeak    uint32
	PollerDetections int
	PollerPolls      int
	PollerPeak       uint32
	MeanEpisodeUs    float64 // mean detected burst duration, microseconds
}

// DetectionRateTPP returns the fraction of generated bursts the TPP
// telemetry detected.
func (r Result) DetectionRateTPP() float64 {
	if r.BurstsGenerated == 0 {
		return 0
	}
	return float64(len(r.Episodes)) / float64(r.BurstsGenerated)
}

// DetectionRatePoller returns the fraction the baseline poller caught.
func (r Result) DetectionRatePoller() float64 {
	if r.BurstsGenerated == 0 {
		return 0
	}
	return float64(r.PollerDetections) / float64(r.BurstsGenerated)
}

// Run executes the experiment.
func Run(cfg Config) Result {
	sim := netsim.New(1)
	edge := topo.Mbps(edgeMbps, 10*netsim.Microsecond)
	n, hosts, sw := topo.Star(sim, Senders+1, edge,
		topo.Uniform(asic.Config{QueueCapBytes: 500_000, Metrics: cfg.Metrics, Trace: cfg.Trace}), cfg.Trace)
	receiver := hosts[Senders]
	senders := hosts[:Senders]
	n.PrimeL2(10 * netsim.Millisecond)

	rcvPort := n.AttachmentOf(receiver).Port

	detector := NewDetector(threshold, 10*netsim.Millisecond)
	// The distribution appears in metric snapshots alongside the
	// switch's own queue histograms; without metrics it is nil.
	detector.Depth = cfg.Metrics.Histogram("microburst/queue_depth_bytes")
	receiver.HandleDefault(func(pkt *core.Packet) {
		if pkt.TPP == nil {
			return
		}
		for _, q := range HopQueues(pkt.TPP) {
			detector.Observe(sim.Now(), q)
		}
	})

	var poller Poller
	poller.Attach(sim, sw, rcvPort, threshold, PollEvery)

	// Synchronized incast bursts with small per-sender jitter.
	every := cfg.SampleEvery
	if every <= 0 {
		every = 1
	}
	pkts := (BurstBytes + packetBytes - 1) / packetBytes
	start := sim.Now()
	sent := 0
	for b := 0; b < cfg.Bursts; b++ {
		at := start + netsim.Time(b)*Period
		for _, s := range senders {
			s := s
			jitter := netsim.Time(sim.Rand().Int63n(int64(jitterMax) + 1))
			sim.At(at+jitter, func() {
				for i := 0; i < pkts; i++ {
					pkt := s.NewPacket(receiver.MAC, receiver.IP, 4000, 4001, packetBytes)
					if sent%every == 0 {
						Instrument(pkt, 4)
					}
					sent++
					s.Send(pkt)
				}
			})
		}
	}
	sim.RunUntil(start + netsim.Time(cfg.Bursts)*Period + netsim.Second)

	episodes := detector.Episodes()
	var meanUs float64
	for _, e := range episodes {
		meanUs += float64(e.Duration()) / float64(netsim.Microsecond)
	}
	if len(episodes) > 0 {
		meanUs /= float64(len(episodes))
	}
	return Result{
		Config:           cfg,
		BurstsGenerated:  cfg.Bursts,
		Episodes:         episodes,
		TelemetrySamples: detector.Observed,
		TelemetryPeak:    detector.Peak,
		PollerDetections: poller.Detections,
		PollerPolls:      poller.Polls,
		PollerPeak:       poller.Peak,
		MeanEpisodeUs:    meanUs,
	}
}

// DensityPoint is one point of the sampling-density sweep.
type DensityPoint struct {
	SampleEvery   int
	DetectionRate float64
	Samples       int
}

// SweepDensity runs the incast experiment at several telemetry
// densities, quantifying §2.1's "per-RTT, or even per-packet
// visibility": detection degrades as sampling thins out toward the
// polling regime.
func SweepDensity(base Config, everies []int) []DensityPoint {
	out := make([]DensityPoint, 0, len(everies))
	for _, e := range everies {
		cfg := base
		cfg.SampleEvery = e
		r := Run(cfg)
		out = append(out, DensityPoint{
			SampleEvery:   e,
			DetectionRate: r.DetectionRateTPP(),
			Samples:       r.TelemetrySamples,
		})
	}
	return out
}
