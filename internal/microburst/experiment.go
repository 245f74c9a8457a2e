package microburst

import (
	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

// Config parameterizes the micro-burst experiment: an incast workload
// (the canonical datacenter source of micro-bursts) on a star topology,
// observed simultaneously by per-packet TPP telemetry and by a coarse
// poller.
type Config struct {
	Senders     int         // incast fan-in
	BurstBytes  int         // bytes each sender contributes per burst
	Period      netsim.Time // burst repetition period
	Bursts      int         // number of synchronized bursts
	EdgeMbps    float64     // link speed
	Threshold   uint32      // burst threshold, bytes of queue
	PollEvery   netsim.Time // baseline polling interval
	JitterMax   netsim.Time // per-sender start jitter within a burst
	PacketBytes int         // payload bytes per data packet
	// SampleEvery instruments every k-th data packet with the
	// telemetry TPP (1 = per-packet, the §2.1 design point; larger
	// values model cheaper, sparser sampling).  Zero means 1.
	SampleEvery int
	Seed        int64

	// Metrics and Trace thread the telemetry subsystem through the
	// switch and register the detector's queue-depth histogram under
	// microburst/queue_depth_bytes; both may be nil.
	Metrics *obs.Registry
	Trace   *obs.Tracer
}

// DefaultConfig is the canonical run: an 8-to-1 incast of 15 KB bursts
// every 100ms on 100 Mb/s links, against a 1-second poller.
func DefaultConfig() Config {
	return Config{
		Senders:     8,
		BurstBytes:  15_000,
		Period:      100 * netsim.Millisecond,
		Bursts:      50,
		EdgeMbps:    100,
		Threshold:   10_000,
		PollEvery:   netsim.Second,
		JitterMax:   200 * netsim.Microsecond,
		PacketBytes: 958,
		Seed:        1,
	}
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

	// QueueDepth is the telemetry-observed queue-occupancy distribution
	// (the detector's histogram) — percentiles, not just the peak.
	QueueDepth *obs.Histogram
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
	sim := netsim.New(cfg.Seed)
	edge := topo.Mbps(cfg.EdgeMbps, 10*netsim.Microsecond)
	n, hosts, sw := topo.Star(sim, cfg.Senders+1, edge,
		topo.Uniform(asic.Config{QueueCapBytes: 500_000, Metrics: cfg.Metrics, Trace: cfg.Trace}), cfg.Trace)
	receiver := hosts[cfg.Senders]
	senders := hosts[:cfg.Senders]
	n.PrimeL2(10 * netsim.Millisecond)

	rcvPort := n.AttachmentOf(receiver).Port

	detector := NewDetector(cfg.Threshold, 10*netsim.Millisecond)
	if cfg.Metrics != nil {
		// Register the distribution so it appears in metric snapshots
		// alongside the switch's own queue histograms.
		detector.Depth = cfg.Metrics.Histogram("microburst/queue_depth_bytes")
	}
	receiver.HandleDefault(func(pkt *core.Packet) {
		if pkt.TPP == nil {
			return
		}
		for _, q := range HopQueues(pkt.TPP) {
			detector.Observe(sim.Now(), q)
		}
	})

	var poller Poller
	poller.Attach(sim, sw, rcvPort, cfg.Threshold, cfg.PollEvery)

	// Synchronized incast bursts with small per-sender jitter.
	every := cfg.SampleEvery
	if every <= 0 {
		every = 1
	}
	pkts := (cfg.BurstBytes + cfg.PacketBytes - 1) / cfg.PacketBytes
	start := sim.Now()
	sent := 0
	for b := 0; b < cfg.Bursts; b++ {
		at := start + netsim.Time(b)*cfg.Period
		for _, s := range senders {
			s := s
			jitter := netsim.Time(sim.Rand().Int63n(int64(cfg.JitterMax) + 1))
			sim.At(at+jitter, func() {
				for i := 0; i < pkts; i++ {
					pkt := s.NewPacket(receiver.MAC, receiver.IP, 4000, 4001, cfg.PacketBytes)
					if sent%every == 0 {
						Instrument(pkt, 4)
					}
					sent++
					s.Send(pkt)
				}
			})
		}
	}
	sim.RunUntil(start + netsim.Time(cfg.Bursts)*cfg.Period + netsim.Second)

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
		QueueDepth:       detector.Depth,
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
