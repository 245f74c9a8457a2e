package endhost

// WordPoller turns successive absolute reads of one switch SRAM word
// into monotone deltas.  It is the one place a delta is re-based: a
// read whose boot epoch differs from the last one — or whose value ran
// backwards, belt-and-braces — means the switch crash-restarted and
// wiped the word, so the delta is the value accumulated since the wipe
// instead of going negative.  The first read is the word's baseline
// and counts as data: its delta is the whole value.
//
// The zero value is ready to use; accounting.Counter.Poll keeps one by
// value and reports its baseline as a zero delta itself.
type WordPoller struct {
	last  uint32
	epoch uint32
	seen  bool
	cum   uint64

	// Rebases counts re-based reads (epoch bump or value regression).
	Rebases uint64
}

// Fold applies one read of value v taken atomically with the switch's
// boot epoch.  It returns the (never negative) delta and whether the
// word was re-based.
func (w *WordPoller) Fold(epoch, v uint32) (delta uint64, rebased bool) {
	switch {
	case !w.seen:
		w.seen = true
		delta = uint64(v)
	case epoch != w.epoch || v < w.last:
		w.Rebases++
		rebased = true
		delta = uint64(v)
	default:
		delta = uint64(v) - uint64(w.last)
	}
	w.cum += delta
	w.last = v
	w.epoch = epoch
	return delta, rebased
}

// Seen reports whether a baseline read has been folded.
func (w *WordPoller) Seen() bool { return w.seen }

// RegionPoller folds periodic sweeps of a switch SRAM word region into
// monotone per-word accumulations, one WordPoller per word: both
// re-base on an epoch bump or a value regression, and a word's first
// value counts as data, so Cumulative covers the whole epoch the sweep
// started in.
//
// The poller is transport-agnostic: callers (the in-band telemetry
// collector, or any task sweeping counters it laid out in SRAM) read
// chunks of the region with gated TPPs that fetch the chunk and the
// switch's [Switch:Epoch] atomically in one execution, then Fold each
// chunk.  Words are tracked independently because chunks land in
// separate probes: a reboot between two probes of one sweep re-bases
// exactly the words read after the wipe.
type RegionPoller struct {
	words []WordPoller

	// Folds counts Fold calls that were applied.
	Folds uint64
}

// NewRegionPoller tracks a region of the given word count.
func NewRegionPoller(words int) *RegionPoller {
	return &RegionPoller{words: make([]WordPoller, words)}
}

// Fold applies one atomically-read chunk: vals[i] is the value of word
// offset+i, and epoch is the boot epoch read in the same TPP execution.
// It returns the per-word deltas this sweep contributed (never
// negative: a wiped word re-bases to its post-wipe value; a word's
// first value is its whole delta) and whether any word was re-based.
// Chunks that fall outside the region are clipped.
func (p *RegionPoller) Fold(offset int, epoch uint32, vals []uint32) (deltas []uint64, discont bool) {
	deltas = make([]uint64, len(vals))
	for i, v := range vals {
		if w := offset + i; w >= 0 && w < len(p.words) {
			var rebased bool
			deltas[i], rebased = p.words[w].Fold(epoch, v)
			discont = discont || rebased
		}
	}
	p.Folds++
	return deltas, discont
}

// Discontinuities counts word re-basings across the region.
func (p *RegionPoller) Discontinuities() uint64 {
	var n uint64
	for i := range p.words {
		n += p.words[i].Rebases
	}
	return n
}

// Current returns the last observed value of word w — the word's
// accumulation within the switch's current boot epoch, i.e. what is in
// SRAM right now (as of the last sweep).
func (p *RegionPoller) Current(w int) uint32 {
	if w < 0 || w >= len(p.words) {
		return 0
	}
	return p.words[w].last
}

// Cumulative returns everything ever folded for word w, across wipes:
// the sum of all (re-based, never negative) deltas.  Cumulative(w) >=
// Current(w) always; the difference is what sweeps collected before a
// wipe destroyed it.
func (p *RegionPoller) Cumulative(w int) uint64 {
	if w < 0 || w >= len(p.words) {
		return 0
	}
	return p.words[w].cum
}
