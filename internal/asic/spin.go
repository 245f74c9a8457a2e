package asic

import (
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// spinWatch is one fixed-function spin-bit observer: a §4-style
// comparator watching a single flow's TOS spin bit (core.SpinBit) as
// packets transit the switch.  Endpoints alternate the bit once per
// round trip (QUIC-style), so the interval between observed transitions
// is the flow's RTT as seen from this vantage point — measured entirely
// in the dataplane, with zero cooperation from the end hosts beyond
// running their own spin protocol.
//
// Each edge interval is bucketed with the same power-of-two function
// the host-side obs.Histogram uses (obs.BucketOf) and counted into an
// SRAM histogram window of obs.NumBuckets words starting at base, where
// collector TPPs can sweep it like any other dataplane histogram.  The
// edge-tracking state (last bit, last edge time) is soft: a crash wipes
// it along with the SRAM, and the first post-boot packet re-anchors.
type spinWatch struct {
	src, dst uint32   // the watched flow, exact-match on IPv4 src/dst
	base     mem.Addr // SRAM histogram window, obs.NumBuckets words

	seen     bool // a packet of the flow has anchored lastBit/lastEdge
	lastBit  uint8
	lastEdge netsim.Time

	edges   uint64 // transitions observed (the first has no interval)
	samples uint64 // intervals bucketed into the SRAM window
}

func (w *spinWatch) reset() {
	w.seen = false
	w.lastBit = 0
	w.lastEdge = 0
}

// observe inspects one forwarded packet; non-flow packets are ignored.
// Runs in the fixed-function stage just before the TCPU.
func (w *spinWatch) observe(s *Switch, pkt *core.Packet) {
	if pkt.IP.Src != w.src || pkt.IP.Dst != w.dst {
		return
	}
	bit := pkt.IP.TOS & core.SpinBit
	now := s.sim.Now()
	if !w.seen {
		w.seen = true
		w.lastBit = bit
		w.lastEdge = now
		return
	}
	if bit == w.lastBit {
		return
	}
	// An edge.  The very first edge after (re-)anchoring measures the
	// interval since the anchor packet, which is only a true RTT when
	// the anchor itself was an edge — after a reboot wipe the anchor is
	// an arbitrary mid-spin packet, so implementations conservatively
	// bucket only edge-to-edge intervals; we anchor on the first packet
	// seen, whose TOS carries the current spin value, making every
	// subsequent transition a true edge-to-edge interval.
	interval := uint64(now - w.lastEdge)
	w.edges++
	bucketed := uint64(0)
	if idx := obs.BucketOf(interval); idx < obs.NumBuckets {
		i := mem.SRAMIndex(w.base + mem.Addr(idx))
		if i >= 0 && i < len(s.sram) {
			s.sram[i]++
			w.samples++
			bucketed = 1
		}
	}
	s.span(pkt, obs.StageSpinEdge, interval, bucketed)
	w.lastBit = bit
	w.lastEdge = now
}

// WatchSpin installs a spin-bit observer for the (src, dst) flow,
// bucketing edge intervals into the obs.NumBuckets-word SRAM window at
// base (an NSSRAM address, typically allocated through the control
// plane agent).  Multiple watches may coexist; each needs its own
// window.
func (s *Switch) WatchSpin(src, dst uint32, base mem.Addr) {
	s.spin = append(s.spin, &spinWatch{src: src, dst: dst, base: base})
}

// SpinEdges returns how many spin-bit transitions the observer for
// (src, dst) has seen, and SpinSamples how many intervals it bucketed;
// both are zero for an unwatched flow.  Like the other Go-side counters
// they survive Reboot, while the SRAM buckets do not.
func (s *Switch) SpinEdges(src, dst uint32) uint64 {
	for _, w := range s.spin {
		if w.src == src && w.dst == dst {
			return w.edges
		}
	}
	return 0
}

// SpinSamples returns how many spin intervals the observer for
// (src, dst) has bucketed into its SRAM window.
func (s *Switch) SpinSamples(src, dst uint32) uint64 {
	for _, w := range s.spin {
		if w.src == src && w.dst == dst {
			return w.samples
		}
	}
	return 0
}
