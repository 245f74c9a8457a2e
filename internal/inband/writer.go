package inband

import (
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/obs"
)

// WriterConfig wires a HistWriter to its switch window.
type WriterConfig struct {
	Prober *endhost.Prober
	DstMAC core.MAC
	// DstIP is a host beyond the histogram's switch, so increment
	// probes transit it and echo back.
	DstIP uint32
	Spec  HistSpec
	// Metrics (optional) registers inband/writer/* counters.
	Metrics *obs.Registry
}

// HistWriter folds locally measured samples into a switch-resident
// power-of-two histogram, one CSTORE TPP per increment.  It is the
// window's single writer, which turns compare-and-store into an
// exactly-once increment protocol:
//
//   - want[i] is ground truth: how many samples belong in bucket i.
//   - shadow[i] mirrors what the writer has confirmed is in SRAM.
//   - One attempt is outstanding at a time: CEXEC-gated to the home
//     switch, CSTORE(bucket, cond=shadow[i], src=shadow[i]+1), then a
//     LOAD of [Switch:Epoch] in the same execution (prog).  The echoed old
//     value says exactly what happened: cond means this attempt
//     applied; cond+1 means a retransmitted twin already applied (the
//     duplicate is detected, not double-counted); anything else is
//     adopted as the true SRAM state.
//   - An epoch change in the echo means the switch crash-restarted and
//     wiped the window: every shadow re-bases to zero, which re-offers
//     every confirmed sample, so SRAM in the new epoch converges back
//     to the full sample multiset.
//
// The writer drives SRAM toward want; Drained reports convergence.
type HistWriter struct {
	cfg    WriterConfig
	want   []uint32
	shadow []uint32
	epochs *endhost.EpochTracker

	// prog is the writer's one increment program: the CEXEC gate to the
	// home switch, CSTORE(bucket, cond=[Packet:2], src=[Packet:3])
	// echoing the old value into word 4, and the boot epoch read
	// atomically in the same execution into word 5 — so the echoed
	// value and the epoch that interprets it can never straddle a
	// crash.  An attempt stamps the bucket operand and cond/src; the
	// prober sends a copy, so words 4 and 5 keep Gated's sentinel.
	prog *core.TPP
	// bucket and cond are the attempt in flight; at most one is.
	bucket   int
	cond     uint32
	inFlight bool
	// misses counts attempts since the last conclusive echo; it sets
	// the retry backoff (endhost.RetryBackoff).
	misses int

	// w.onEcho, w.onAttemptLost and w.pump bound once: a method value
	// made per send is a heap closure each.
	onEchoFn       func(*core.TPP)
	lostFn, pumpFn func()

	// Samples counts Observe calls; Applied counts attempts whose echo
	// proved this transmission committed; Duplicates counts echoes
	// proving an earlier twin of the attempt committed; Adopted counts
	// echoes showing an unexpected SRAM value (foreign writer or
	// sentinel alias — zero in a correctly partitioned deployment);
	// Inconclusive counts echoes where the program never executed at
	// the gated switch; Failures counts attempts whose send or every
	// retransmission was lost.
	Samples      uint64
	Applied      uint64
	Duplicates   uint64
	Adopted      uint64
	Inconclusive uint64
	Failures     uint64
}

// NewHistWriter builds the writer; the window starts (and the switch
// boots) all-zero, so want and shadow start all-zero and the epoch
// tracker is seeded with epoch 0: an echo from a switch that has
// already rebooted is a rebase.
func NewHistWriter(cfg WriterConfig) *HistWriter {
	w := &HistWriter{
		cfg:    cfg,
		want:   make([]uint32, cfg.Spec.Buckets),
		shadow: make([]uint32, cfg.Spec.Buckets),
		epochs: endhost.NewEpochTracker(),
		prog: endhost.Gated(cfg.Spec.SwitchID, 6,
			core.Instruction{Op: core.OpCSTORE, B: 2},
			core.Instruction{Op: core.OpLOAD, A: uint16(mem.SwitchBase + mem.SwitchEpoch), B: 5}),
	}
	w.onEchoFn, w.lostFn, w.pumpFn = w.onEcho, w.onAttemptLost, w.pump
	w.epochs.Observe(cfg.Spec.SwitchID, 0)
	cfg.Metrics.Collect(w.collect)
	return w
}

// collect names the writer's exported counts for the registry's pull
// edge.
func (w *HistWriter) collect(emit func(name string, v uint64)) {
	emit("inband/writer/samples", w.Samples)
	emit("inband/writer/applied", w.Applied)
	emit("inband/writer/duplicates", w.Duplicates)
	emit("inband/writer/inconclusive", w.Inconclusive)
	emit("inband/writer/rebases", w.Rebases())
}

// Observe buckets one sample (obs.BucketOf, clipped to the window) and
// starts the pump if it is idle.
func (w *HistWriter) Observe(v uint64) {
	b := obs.BucketOf(v)
	if b >= len(w.want) {
		b = len(w.want) - 1
	}
	if b < 0 {
		return
	}
	w.want[b]++
	w.Samples++
	w.pump()
}

// Drained reports whether every observed sample has been confirmed in
// SRAM in the switch's current epoch (as far as the writer knows).
func (w *HistWriter) Drained() bool {
	return !w.inFlight && w.next() < 0
}

// PendingSamples returns how many increments are still unconfirmed.
func (w *HistWriter) PendingSamples() uint64 {
	var n uint64
	for i := range w.want {
		n += uint64(w.want[i] - w.shadow[i])
	}
	return n
}

// next returns the lowest bucket with unconfirmed samples, or -1.
// Lowest-first is arbitrary but deterministic.
func (w *HistWriter) next() int {
	for i := range w.want {
		if w.want[i] > w.shadow[i] {
			return i
		}
	}
	return -1
}

// pump sends the next increment attempt unless one is outstanding.
func (w *HistWriter) pump() {
	if w.inFlight {
		return
	}
	i := w.next()
	if i < 0 {
		return
	}
	w.inFlight = true
	w.bucket, w.cond = i, w.shadow[i]
	w.prog.Ins[1].A = uint16(w.cfg.Spec.BucketAddr(i))
	w.prog.SetWord(2, w.cond)
	w.prog.SetWord(3, w.cond+1)
	// The prober's defaults bound each attempt; a nonzero Timeout with
	// retries is what makes the duplicate-detection path reachable.
	_, ok := w.cfg.Prober.ProbeCfg(w.cfg.DstMAC, w.cfg.DstIP, w.prog, w.cfg.Prober.Defaults(),
		w.onEchoFn, w.lostFn)
	if !ok {
		w.onAttemptLost()
	}
}

// onAttemptLost handles a send failure or an exhausted probe deadline:
// back off and re-offer (the retry reuses the same cond, so a twin that
// did apply is detected as a duplicate, never double-counted).
func (w *HistWriter) onAttemptLost() {
	w.inFlight = false
	w.Failures++
	w.retryLater()
}

// retryLater re-offers the pending samples after the backoff for one
// more miss since the last conclusive echo.
func (w *HistWriter) retryLater() {
	d := endhost.RetryBackoff(w.misses)
	w.misses++
	w.cfg.Prober.After(d, w.pumpFn)
}

func (w *HistWriter) onEcho(e *core.TPP) {
	w.inFlight = false
	i, cond := w.bucket, w.cond
	got := e.Word(4)
	epoch := e.Word(5)
	if got == endhost.Unexecuted && epoch == endhost.Unexecuted {
		// Echoed without executing at the home switch (throttled or
		// stripped): inconclusive, back off and retry the same cond.
		w.Inconclusive++
		w.retryLater()
		return
	}
	w.misses = 0
	rebased := w.epochs.Observe(w.cfg.Spec.SwitchID, epoch)
	if rebased {
		// The switch crash-restarted since the last conclusive echo:
		// the window was wiped, so nothing previously confirmed is in
		// SRAM any more.  Re-base every shadow to the wiped state —
		// which re-offers every confirmed sample for replay into the
		// new epoch — then fall through to mirror what this echo
		// proved about bucket i after the wipe.
		clear(w.shadow)
	}
	switch got {
	case cond:
		// The compare matched: this transmission's CSTORE committed
		// and the bucket now holds cond+1.
		w.Applied++
		w.shadow[i] = got + 1
	case cond + 1:
		// An earlier transmission of this same attempt committed and
		// its echo was lost; this copy's compare failed against the
		// already-incremented value.  The sample is in — count it once.
		w.Duplicates++
		w.shadow[i] = got
	default:
		// Mirror SRAM's word and re-drive from there.  Across a wipe
		// this is the normal shape — cond was confirmed in the dead
		// epoch, so a mismatch (typically got == 0) carries no signal.
		// Within an epoch it is a value the single-writer protocol
		// cannot produce: count it as a foreign write.
		if !rebased {
			w.Adopted++
		}
		w.shadow[i] = got
	}
	w.pump()
}

// Rebases counts the epoch changes the writer's echoes revealed.
func (w *HistWriter) Rebases() uint64 { return w.epochs.Changes }
