package microburst

import (
	"sort"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// BreakdownProgram samples, at every hop, the egress queue occupancy
// and the link capacity, from which the end-host computes the queueing
// latency the packet experienced there — the "detailed breakdown of
// queueing latencies on all network hops" of §2.1.
func BreakdownProgram(maxHops int) *core.TPP {
	return core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
		{Op: core.OpPUSH, A: uint16(mem.PortBase + mem.PortCapacity)},
	}, 2*maxHops)
}

// HopLatencies converts an executed breakdown TPP into per-hop queueing
// latencies in microseconds (queue bytes ahead of the packet divided by
// the drain rate).
func HopLatencies(t *core.TPP) []float64 {
	hops := t.Hop(2)
	out := make([]float64, 0, hops)
	for i := 0; i < hops; i++ {
		q := float64(t.Word(2 * i))
		c := float64(t.Word(2*i + 1))
		if c <= 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, q/c*1e6)
	}
	return out
}

// BreakdownConfig parameterizes the latency-breakdown experiment: a
// 3-switch path whose middle switch also carries 20 bursts of 30 KB
// cross traffic, so one hop dominates the end-to-end queueing latency.
type BreakdownConfig struct {
	Packets int // instrumented probes, one every 2ms
}

const (
	crossBursts = 20
	crossBytes  = 30_000
)

// DefaultBreakdownConfig is the canonical run.
func DefaultBreakdownConfig() BreakdownConfig {
	return BreakdownConfig{Packets: 400}
}

// HopStats summarizes one hop's queueing-latency distribution.
type HopStats struct {
	Hop    int
	MeanUs float64
	P99Us  float64
	MaxUs  float64
}

// BreakdownResult is the per-hop latency breakdown.
type BreakdownResult struct {
	Hops []HopStats
	// DominantHop is the hop index (0-based) with the largest mean
	// queueing latency; the experiment arranges for it to be hop 1
	// (the cross-traffic switch).
	DominantHop int
	Samples     int
}

// RunBreakdown executes the experiment.
func RunBreakdown(cfg BreakdownConfig) BreakdownResult {
	sim := netsim.New(1)
	edge := topo.Mbps(100, 10*netsim.Microsecond)
	fabric := topo.Mbps(20, 10*netsim.Microsecond)
	n, src, dst, sws := topo.Line(sim, 3, edge, fabric,
		topo.Uniform(asic.Config{Ports: 4, QueueCapBytes: 400_000}), nil)
	cross := n.AddHost()
	n.LinkHost(cross, sws[1], edge) // bursts into the S1->S2 hop
	n.PrimeL2(10 * netsim.Millisecond)

	lats := make([][]float64, 3) // per-hop samples, µs
	samples := 0
	dst.HandleDefault(func(pkt *core.Packet) {
		if pkt.TPP == nil {
			return
		}
		for hop, lat := range HopLatencies(pkt.TPP) {
			if hop < len(lats) {
				lats[hop] = append(lats[hop], lat)
			}
		}
		samples++
	})

	// Cross bursts toward dst: they share only the S1 egress with the
	// probe stream.
	start := sim.Now()
	crossPkts := (crossBytes + 957) / 958
	for b := 0; b < crossBursts; b++ {
		at := start + netsim.Time(b)*50*netsim.Millisecond
		sim.At(at, func() {
			for i := 0; i < crossPkts; i++ {
				cross.Send(cross.NewPacket(dst.MAC, dst.IP, 7000, 7001, 958))
			}
		})
	}
	// Instrumented probe stream, one packet every 2ms.
	sent := 0
	tick := sim.Every(start, 2*netsim.Millisecond, func() {
		if sent >= cfg.Packets {
			return
		}
		sent++
		pkt := src.NewPacket(dst.MAC, dst.IP, 7002, 7003, 200)
		pkt.TPP = BreakdownProgram(3)
		pkt.Eth.Type = core.EtherTypeTPP
		src.Send(pkt)
	})
	sim.RunUntil(start + netsim.Time(cfg.Packets)*2*netsim.Millisecond + netsim.Second)
	tick.Stop()

	res := BreakdownResult{Samples: samples}
	best := -1.0
	for i, xs := range lats {
		m := mean(xs) // summed in arrival order, before the sort
		sort.Float64s(xs)
		hs := HopStats{Hop: i, MeanUs: m, P99Us: quantile(xs, 0.99), MaxUs: quantile(xs, 1)}
		res.Hops = append(res.Hops, hs)
		if hs.MeanUs > best {
			best = hs.MeanUs
			res.DominantHop = i
		}
	}
	return res
}

// mean returns the samples' mean, 0 when there are none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile returns the q-quantile (0 <= q <= 1) of sorted samples by
// linear interpolation, 0 when there are none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo == len(sorted)-1 {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
