// Package microburst implements the §2.1 network task: detecting
// short-lived congestion events.  "Queue occupancy fluctuations due to
// small-timescale congestion (i.e., micro-bursts) are hard to detect as
// queues change at timescales of a few RTTs ... Today's monitoring
// mechanisms operate only on timescales that are 10s of seconds at
// best."
//
// The TPP approach annotates every data packet with PUSH
// [Queue:QueueSize]; the receiving end-host streams the per-packet
// snapshots into a Detector that extracts burst episodes.  The Poller
// is the baseline: an SNMP-style collector that reads the same queue
// register on a coarse timer and misses almost everything.
package microburst

import (
	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// telemetryIns is the probe's instruction text, shared read-only by
// every instrumented packet: instruction sections are immutable in
// flight (only packet memory mutates), so per-packet instrumentation
// need not copy it.
var telemetryIns = []core.Instruction{
	{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
}

// TelemetryProgram returns the §2.1 probe: one queue-size snapshot per
// hop ("PUSH [Queue:QueueSize] copies the queue register onto packet
// memory").
func TelemetryProgram(maxHops int) *core.TPP {
	return core.NewTPP(core.AddrStack, telemetryIns, maxHops)
}

// Instrument attaches a fresh telemetry TPP to a data packet, turning
// it into a TPP frame that encapsulates the original payload.
func Instrument(pkt *core.Packet, maxHops int) {
	pkt.TPP = TelemetryProgram(maxHops)
	pkt.Eth.Type = core.EtherTypeTPP
}

// HopQueues extracts the recorded per-hop queue sizes from a received
// telemetry packet ("the end-host knows exactly how to interpret values
// in the packet to obtain a detailed breakdown of queueing latencies on
// all network hops").
func HopQueues(t *core.TPP) []uint32 {
	hops := t.Hop(1)
	out := make([]uint32, 0, hops)
	for i := 0; i < hops; i++ {
		out = append(out, t.Word(i))
	}
	return out
}

// Episode is one detected micro-burst: a maximal run of samples at or
// above the detector threshold.
type Episode struct {
	Start   netsim.Time
	End     netsim.Time
	Peak    uint32
	Samples int
}

// Duration returns the episode length.
func (e Episode) Duration() netsim.Time { return e.End - e.Start }

// Detector turns a stream of (time, queue-size) samples into burst
// episodes.  Samples below the threshold, or gaps longer than maxGap,
// close the current episode.
type Detector struct {
	threshold uint32
	maxGap    netsim.Time

	episodes []Episode
	cur      *Episode

	// Observed counts all samples; Peak tracks the largest queue ever
	// seen through telemetry.
	Observed int
	Peak     uint32

	// Depth, when set, receives every sample: the full queue-depth
	// distribution (log2 buckets), a far richer picture than the
	// single Peak value.  Nil records nothing.
	Depth *obs.Histogram
}

// NewDetector builds a detector flagging queue occupancy at or above
// thresholdBytes, closing episodes after maxGap without a qualifying
// sample.
func NewDetector(thresholdBytes uint32, maxGap netsim.Time) *Detector {
	return &Detector{threshold: thresholdBytes, maxGap: maxGap}
}

// Observe feeds one telemetry sample.
func (d *Detector) Observe(at netsim.Time, queueBytes uint32) {
	d.Observed++
	d.Depth.Observe(uint64(queueBytes))
	if queueBytes > d.Peak {
		d.Peak = queueBytes
	}
	if d.cur != nil && at-d.cur.End > d.maxGap {
		d.flush()
	}
	if queueBytes < d.threshold {
		return
	}
	if d.cur == nil {
		d.cur = &Episode{Start: at, End: at, Peak: queueBytes, Samples: 1}
		return
	}
	d.cur.End = at
	d.cur.Samples++
	if queueBytes > d.cur.Peak {
		d.cur.Peak = queueBytes
	}
}

func (d *Detector) flush() {
	if d.cur != nil {
		d.episodes = append(d.episodes, *d.cur)
		d.cur = nil
	}
}

// Episodes closes any open episode and returns all detected bursts.
func (d *Detector) Episodes() []Episode {
	d.flush()
	return d.episodes
}

// Poller is the baseline monitor: it reads the queue register of one
// egress port on a fixed interval, the way SNMP/sFlow counters are
// scraped.  Detections counts polls that happened to land inside a
// burst.
type Poller struct {
	Detections int
	Polls      int
	Peak       uint32
}

// Attach starts polling (sw, port) every interval against the given
// threshold.
func (p *Poller) Attach(sim *netsim.Sim, sw *asic.Switch, port int, thresholdBytes uint32, interval netsim.Time) {
	sim.Every(sim.Now()+interval, interval, func() {
		q := uint32(sw.Port(port).QueueBytes())
		p.Polls++
		if q > p.Peak {
			p.Peak = q
		}
		if q >= thresholdBytes {
			p.Detections++
		}
	})
}
