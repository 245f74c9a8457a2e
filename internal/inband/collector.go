package inband

import (
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/tcpu"
)

// CollectorConfig wires a Collector to the window it sweeps.
type CollectorConfig struct {
	Prober *endhost.Prober
	DstMAC core.MAC
	// DstIP is a host beyond the histogram's switch, so sweep probes
	// transit it and echo back.
	DstIP uint32
	Spec  HistSpec
	// Metrics (optional) registers inband/<Name>/* counters; Tracer
	// (optional) receives one StageSweep span per completed sweep.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	// Name defaults to "collector".
	Name string
	// Now supplies span/series timestamps (the simulation clock).
	Now func() int64
}

// SweepPoint is one completed sweep in the collector's time series.
type SweepPoint struct {
	AtNs    int64
	Seq     uint64
	Folded  uint64
	Discont bool
}

// Collector periodically sweeps a dataplane histogram window with
// gated chunk TPPs (each chunk reads its words and the switch's boot
// epoch atomically in one execution) and folds the sweeps through an
// endhost.RegionPoller into host-side obs.Histogram accumulations.  A
// crash-wiped window re-bases on an epoch bump or a value regression
// instead of going negative, and a bucket's first swept value counts as
// data, so the cumulative histogram includes what the window held when
// collection began; what a wipe destroyed stays in it too, captured by
// whichever sweeps ran before the crash.
type Collector struct {
	cfg     CollectorConfig
	offsets []int // first bucket index of each chunk
	sizes   []int // word count of each chunk
	poller  *endhost.RegionPoller
	cum     *obs.Histogram

	seq      uint64
	inFlight bool

	// Series is the per-sweep time series.  Incomplete counts chunks
	// dropped because their probe was lost or never executed at the
	// gated switch; the next sweep re-reads those words.
	Series     []SweepPoint
	Incomplete uint64
}

// NewCollector builds a collector; chunking is fixed at construction.
func NewCollector(cfg CollectorConfig) *Collector {
	if cfg.Name == "" {
		cfg.Name = "collector"
	}
	c := &Collector{
		cfg:    cfg,
		poller: endhost.NewRegionPoller(cfg.Spec.Buckets),
		cum:    obs.NewHistogram(),
	}
	// The device instruction limit sizes sweep chunks.
	per := endhost.GatedChunkWords(tcpu.DefaultMaxInstructions)
	for off := 0; off < cfg.Spec.Buckets; off += per {
		n := min(per, cfg.Spec.Buckets-off)
		c.offsets = append(c.offsets, off)
		c.sizes = append(c.sizes, n)
	}
	cfg.Metrics.Collect(c.collect)
	return c
}

// collect names the collector's counts for the registry's pull edge:
// folded is the cumulative histogram's observation count, and
// discontinuities the sweeps in Series that re-based a word.
func (c *Collector) collect(emit func(name string, v uint64)) {
	pre := "inband/" + c.cfg.Name + "/"
	emit(pre+"sweeps", c.seq)
	emit(pre+"folded", c.cum.Count())
	var discont uint64
	for _, p := range c.Series {
		if p.Discont {
			discont++
		}
	}
	emit(pre+"discontinuities", discont)
	emit(pre+"incomplete_chunks", c.Incomplete)
}

// Sweep launches one sweep: a ProbeGroup of gated chunk reads.  It
// reports whether the sweep was launched — false while the previous
// sweep is still resolving (the periodic caller just skips a beat) or
// when no probe could be sent at all.
func (c *Collector) Sweep() bool {
	if c.inFlight {
		return false
	}
	tpps := make([]*core.TPP, len(c.offsets))
	for k, off := range c.offsets {
		addrs := make([]mem.Addr, c.sizes[k])
		for j := range addrs {
			addrs[j] = c.cfg.Spec.BucketAddr(off + j)
		}
		tpp, err := endhost.GatedChunkProgram(c.cfg.Spec.SwitchID, addrs, tcpu.DefaultMaxInstructions)
		if err != nil {
			return false // impossible by construction
		}
		tpps[k] = tpp
	}
	c.inFlight = true
	ok := c.cfg.Prober.ProbeGroup(c.cfg.DstMAC, c.cfg.DstIP, tpps, c.fold)
	if !ok {
		c.inFlight = false
	}
	return ok
}

// fold applies one resolved sweep group.
func (c *Collector) fold(echoes []*core.TPP) {
	c.inFlight = false
	var folded uint64
	discont := false
	for k, e := range echoes {
		if e == nil {
			c.Incomplete++
			continue
		}
		epoch, vals, ok := endhost.DecodeGatedChunk(e, c.sizes[k])
		if !ok {
			c.Incomplete++
			continue
		}
		deltas, d := c.poller.Fold(c.offsets[k], epoch, vals)
		if d {
			discont = true
		}
		for j, dv := range deltas {
			if dv != 0 {
				c.cum.ObserveBucket(c.offsets[k]+j, dv)
				folded += dv
			}
		}
	}
	c.seq++
	var at int64
	if c.cfg.Now != nil {
		at = c.cfg.Now()
	}
	c.Series = append(c.Series, SweepPoint{AtNs: at, Seq: c.seq, Folded: folded, Discont: discont})
	c.cfg.Tracer.Record(obs.SpanEvent{
		At: at, Node: c.cfg.Spec.SwitchID, Stage: obs.StageSweep,
		A: c.seq, B: folded,
	})
}

// Sweeps returns how many sweeps have completed (resolved and folded).
func (c *Collector) Sweeps() uint64 { return c.seq }

// Discontinuities returns how many word re-basings the sweeps observed.
func (c *Collector) Discontinuities() uint64 { return c.poller.Discontinuities() }

// CurrentBucket returns bucket i as of the last sweep that read it —
// the accumulation within the switch's current boot epoch, i.e. what
// the SRAM word held.
func (c *Collector) CurrentBucket(i int) uint32 { return c.poller.Current(i) }

// CumulativeBucket returns everything ever folded for bucket i, across
// wipes; never less than CurrentBucket.
func (c *Collector) CumulativeBucket(i int) uint64 { return c.poller.Cumulative(i) }
