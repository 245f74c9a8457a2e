package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Stage identifies where in a packet's lifecycle a span event was
// recorded.  The switch stages mirror the §3.1 ingress pipeline order:
// parser, lookup (TCAM slices first, then L3 LPM, then the L2 hash
// table), TCPU, memory manager, egress queue, scheduler; the link
// stages cover serialization and propagation between nodes.
type Stage uint8

// Lifecycle stages and the meaning of each event's A/B arguments.
const (
	// StageParser: packet entered the ingress pipeline.  A=input
	// port, B=wire bytes.  Node is the switch id.
	StageParser Stage = iota
	// StageLookupTCAM: a TCAM slice decided forwarding.  A=matched
	// entry id, B=entry version.
	StageLookupTCAM
	// StageLookupL3: the LPM table decided forwarding.  A=output
	// port, B=remaining TTL.
	StageLookupL3
	// StageLookupL2: the MAC table decided forwarding.  A=output
	// port, B=1 when this is a flooded copy.
	StageLookupL2
	// StageTCPU: the tiny CPU executed the packet's TPP.  A=modeled
	// pipeline cycles, B=instructions executed.
	StageTCPU
	// StageMemMgr: the memory manager admitted the packet toward its
	// egress queue.  A=queue id (0: a port has one queue), B=queue
	// bytes before admission.
	StageMemMgr
	// StageEnqueue: the packet was stored in its egress queue.
	// A=queue id, B=queue bytes after (the depth the packet sees).
	StageEnqueue
	// StageDrop: the egress queue dropped the packet (drop-tail).
	// A=queue id, B=wire bytes lost.
	StageDrop
	// StageSched: the scheduler dequeued the packet for transmission.
	// A=queue id, B=nanoseconds since the packet entered the switch
	// (per-hop latency).
	StageSched
	// StageTTLDrop: the packet's TTL expired at this switch.  A=input
	// port.
	StageTTLDrop
	// StageBlackhole: no forwarding decision existed.  A=input port.
	StageBlackhole
	// StageStrip: an untrusted edge port stripped the packet's TPP
	// (§4 security).  A=input port.
	StageStrip
	// StageLinkTx: the link began serializing the packet.  A=wire
	// bytes, B=serialization nanoseconds.  Node is the link id.
	StageLinkTx
	// StageLinkLoss: the loss model corrupted the frame in flight.
	// A=wire bytes.  Node is the link id.
	StageLinkLoss
	// StageLinkRx: the last bit arrived at the far end.  A=receiver
	// port, B=wire bytes.  Node is the link id.
	StageLinkRx
	// StageLinkDown: the frame was dropped because the link was (or
	// went) down while it was in flight.  A=wire bytes.  Node is the
	// link id.
	StageLinkDown
	// StageFaultInject: the fault injector applied a fault.  UID is 0
	// (no packet); Node is the target's link or switch id; A encodes
	// the fault kind (internal/faults.Kind).
	StageFaultInject
	// StageFaultRecover: the fault injector cleared a fault.  Fields
	// as for StageFaultInject.
	StageFaultRecover
	// StageVerifyReject: the paranoid parser statically rejected the
	// packet's TPP and stripped it.  A=input port, B=error count.
	StageVerifyReject
	// StageThrottle: the TCPU admission gate was out of tokens, so the
	// packet forwarded without executing its TPP (core.FlagThrottled
	// is set on the program).  A=egress port, B=input port.
	StageThrottle
	// StageSwitchReboot: the switch crash-restarted, dropping queued
	// packets and wiping soft state.  UID is 0 (no packet); Node is
	// the switch id; A=new boot epoch, B=boot delay in nanoseconds.
	StageSwitchReboot
	// StageSwitchUp: the switch finished booting and resumed
	// forwarding.  UID is 0; A=boot epoch.
	StageSwitchUp
	// StageRebootDrop: the packet arrived at (or was in the pipeline
	// of) a switch that was down rebooting, and was dropped.  A=input
	// port, B=wire bytes.
	StageRebootDrop
	// StageAccessDeny: the tenant guard denied one memory access in the
	// TCPU memory stage (fail-forward: a denied LOAD returned the poison
	// value, a denied STORE was dropped, and execution continued).  One
	// event per denied access, so the span stream reconciles exactly
	// against the tpps_denied counters.  A=denied word address shifted
	// left one with the write bit in bit 0, B=tenant id.
	StageAccessDeny
	// StageCStore: a CSTORE committed (the compare matched and the
	// store was applied) in the TCPU memory stage.  One event per
	// commit, so the span stream reconciles exactly against the
	// cstore_commits counter.  A=word address stored, B=value stored.
	StageCStore
	// StageSweep: an in-band telemetry collector folded one sweep of a
	// dataplane histogram window into its host-side accumulation.  UID
	// is 0 (no single packet); Node is the swept switch id; A=sweep
	// sequence number, B=observations folded by this sweep.
	StageSweep
	// StageSpinEdge: the fixed-function spin-bit observer saw the
	// watched flow's spin bit transition and bucketed the edge-to-edge
	// interval into its SRAM histogram.  A=interval in nanoseconds,
	// B=1 when the interval was bucketed (0 for the flow's first edge,
	// which has no predecessor).
	StageSpinEdge
	// StageReflexFire: a reflex arm's CAS-checked TCAM rewrite steered
	// a prefix onto its pre-authorized backup next-hop.  UID is the
	// triggering transit packet (0 when congestion fired from a
	// heartbeat check).  A=the rewritten entry id, B=the backup port.
	StageReflexFire
	// StageReflexRevert: a detoured prefix was CAS-restored to its
	// primary next-hop after the egress healed and the flap-damping
	// dwell elapsed.  A=the rewritten entry id, B=the primary port.
	StageReflexRevert
	// StageReflexStale: a reflex write was refused — the entry version
	// raced (another writer touched the route since arming) or the
	// per-switch reflex budget was exhausted.  A=the entry id,
	// B=1 for a version race, 2 for budget exhaustion.
	StageReflexStale
)

var stageNames = [...]string{
	StageParser:       "parser",
	StageLookupTCAM:   "lookup-tcam",
	StageLookupL3:     "lookup-l3",
	StageLookupL2:     "lookup-l2",
	StageTCPU:         "tcpu",
	StageMemMgr:       "memmgr",
	StageEnqueue:      "enqueue",
	StageDrop:         "drop",
	StageSched:        "sched",
	StageTTLDrop:      "ttl-drop",
	StageBlackhole:    "blackhole",
	StageStrip:        "tpp-strip",
	StageLinkTx:       "link-tx",
	StageLinkLoss:     "link-loss",
	StageLinkRx:       "link-rx",
	StageLinkDown:     "link-down",
	StageFaultInject:  "fault-inject",
	StageFaultRecover: "fault-recover",
	StageVerifyReject: "verify-reject",
	StageThrottle:     "tpp-throttle",
	StageSwitchReboot: "switch-reboot",
	StageSwitchUp:     "switch-up",
	StageRebootDrop:   "reboot-drop",
	StageAccessDeny:   "access-deny",
	StageCStore:       "cstore-commit",
	StageSweep:        "sweep",
	StageSpinEdge:     "spin-edge",
	StageReflexFire:   "reflex-fire",
	StageReflexRevert: "reflex-revert",
	StageReflexStale:  "reflex-stale",
}

// String names the stage.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// SpanEvent is one recorded point in a packet's journey.  Node is the
// switch id for pipeline stages and the link id for link stages; A and
// B carry stage-specific arguments (documented on each Stage constant).
// The struct is all-scalar so recording never allocates.
type SpanEvent struct {
	At    int64
	UID   uint64
	Node  uint32
	Stage Stage
	A, B  uint64
}

// DefaultTraceCap is the default log capacity: enough for ~4k packet
// journeys of a dozen-plus events each.
const DefaultTraceCap = 1 << 16

// chunkEvents is the span log's allocation unit (96 KiB of records).
const chunkEvents = 1 << 12

// spanRec is a SpanEvent as the log stores it, in 24 bytes instead of
// 40.  uid is whole.  at holds At as a signed 48-bit offset from its
// chunk's base in bits 0..47 and Node in bits 48..63.  w holds A in bits
// 0..23, B's low word in bits 24..55 and Stage in bits 56..61; recHighB
// says B's high word is all ones (a negative value cast to uint64), and
// otherwise it is zero.  An event that fits none of these slots (see
// recFits) is never truncated: its record carries recSpilled and the
// event itself waits, whole, on the tracer's spill list.
type spanRec struct {
	uid uint64
	at  uint64
	w   uint64
}

const (
	recHighB   = 1 << 62
	recSpilled = 1 << 63
)

// recFits reports whether ev packs into a record of a chunk based at
// base: At within ±2^47 ns of the base (in wrapping arithmetic, which
// unpack undoes exactly), Node below 2^16, A below 2^24, Stage below 64,
// and B's high word zero or all ones.
func recFits(ev *SpanEvent, base int64) bool {
	d, hi := ev.At-base, ev.B>>32
	return d<<16>>16 == d && ev.Node < 1<<16 && ev.A < 1<<24 && ev.Stage < 64 &&
		(hi == 0 || hi == 0xffffffff)
}

// pack stores an event that fits.  B's top bit is its high-word flag.
func (r *spanRec) pack(ev *SpanEvent, base int64) {
	r.uid = ev.UID
	r.at = uint64(ev.At-base)&(1<<48-1) | uint64(ev.Node)<<48
	r.w = ev.A | uint64(uint32(ev.B))<<24 | uint64(ev.Stage)<<56 | ev.B>>63<<62
}

// unpack rebuilds the event a record that did not spill holds.
func (r *spanRec) unpack(ev *SpanEvent, base int64) {
	b := r.w >> 24 & 0xffffffff
	if r.w&recHighB != 0 {
		b |= 0xffffffff << 32
	}
	*ev = SpanEvent{At: base + int64(r.at<<16)>>16, UID: r.uid, Node: uint32(r.at >> 48),
		Stage: Stage(r.w >> 56 & 0x3f), A: r.w & (1<<24 - 1), B: b}
}

// spanChunk is one allocation unit of the log, with the time its
// records' offsets count from: the At of the first event recorded into
// it on its latest lap.
type spanChunk struct {
	recs []spanRec
	base int64
}

// Tracer is a bounded log of span events held in fixed-size chunks
// that are allocated the first time recording reaches them, so a tracer
// holds memory in proportion to the events recorded, up to its
// capacity.  Past capacity the oldest events are overwritten in place
// (Dropped counts them).  A chunk being refilled holds two laps: its
// head counts from the chunk's new base, and its not-yet-overwritten
// tail from the base it had on the lap before (tail), so no run length
// runs out of offset bits.
//
// A Tracer has one writer: Record is called from the
// goroutine that runs the simulator, and the read methods are called
// when that goroutine is not recording.  All methods are no-ops on a
// nil receiver.
type Tracer struct {
	cur    []spanRec   // chunk being filled; nil before the first Record
	pos    int         // next free slot in cur
	base   int64       // chunks[ci].base, copied for record: the base of cur[:pos]
	tail   int64       // cur's base on the previous lap, for cur[pos:]
	n      uint64      // total events ever recorded
	chunks []spanChunk // chunks born so far, in ring order
	ci     int         // index of cur in chunks (-1 before the first Record)
	limit  int         // capacity in events; the last chunk may be short
	spill  []SpanEvent // the retained spilled events, oldest first
	lent   SpanEvent   // the decoded copy Each lends its callback
}

// NewTracer builds a tracer holding up to capacity events
// (DefaultTraceCap when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{ci: -1, limit: capacity}
}

// Record appends one event, overwriting the oldest when full.  It is
// the nil check alone, inlined into every call site, so a disabled
// tracer costs its caller one branch and no call.
//
//alloc:free
//alloc:inline
func (t *Tracer) Record(ev SpanEvent) {
	if t != nil {
		t.record(ev)
	}
}

// record is Record's body, kept out of line so that Record stays within
// the inlining budget.
//
//alloc:free
//go:noinline
func (t *Tracer) record(ev SpanEvent) {
	if t.pos >= len(t.cur) {
		t.advance(ev.At)
	}
	r := &t.cur[t.pos]
	if r.w&recSpilled != 0 {
		// The oldest retained event is overwritten, and it spilled.
		t.spill = t.spill[1:]
	}
	if recFits(&ev, t.base) {
		r.pack(&ev, t.base)
	} else {
		t.spillEvent(r, ev)
	}
	t.pos++
	t.n++
}

// spillEvent keeps an event that does not fit a record whole on the
// spill list, and marks its record.  It is out of line, like advance,
// so the escape gate finds no allocation in record.
//
//go:noinline
func (t *Tracer) spillEvent(r *spanRec, ev SpanEvent) {
	*r = spanRec{w: recSpilled}
	t.spill = append(t.spill, ev)
}

// advance moves recording to the start of the next chunk, wrapping to
// the first after the one that ends at the capacity, allocates a chunk
// the first time recording reaches it, and bases the chunk at at, the
// time of the event about to be recorded.  It is kept out of line so
// that Record, which runs per event, stays a few instructions and the
// escape gate (tools/allocgate) finds no allocation in it.
//
//go:noinline
func (t *Tracer) advance(at int64) {
	next := t.ci + 1
	if next*chunkEvents >= t.limit {
		next = 0
	}
	if next == len(t.chunks) {
		t.chunks = append(t.chunks, spanChunk{recs: make([]spanRec, min(chunkEvents, t.limit-next*chunkEvents))})
	}
	c := &t.chunks[next]
	t.tail, c.base = c.base, at
	t.ci, t.cur, t.pos, t.base = next, c.recs, 0, at
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return int(min(t.n, uint64(t.limit)))
}

// Total returns the number of events ever recorded, including
// overwritten ones.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns how many events were overwritten by wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.n - uint64(t.Len())
}

// Each calls fn on every retained event, oldest first.  fn gets a
// pointer to a decoded copy that the next event overwrites: fn must not
// keep the pointer or write through it, nor call Each itself.
func (t *Tracer) Each(fn func(*SpanEvent)) {
	if t == nil || t.n == 0 {
		return
	}
	spill := t.spill
	each := func(recs []spanRec, base int64) {
		for i := range recs {
			if r := &recs[i]; r.w&recSpilled != 0 {
				t.lent, spill = spill[0], spill[1:]
			} else {
				r.unpack(&t.lent, base)
			}
			fn(&t.lent)
		}
	}
	if t.Dropped() > 0 {
		// Wrapped: every chunk is born and full, and the oldest event
		// is the next one Record would overwrite, packed on the
		// previous lap.
		each(t.cur[t.pos:], t.tail)
		for k := 1; k < len(t.chunks); k++ {
			c := &t.chunks[(t.ci+k)%len(t.chunks)]
			each(c.recs, c.base)
		}
	} else {
		for _, c := range t.chunks[:t.ci] {
			each(c.recs, c.base)
		}
	}
	each(t.cur[:t.pos], t.base)
}

// Events returns a copy of the retained events, oldest first.
//
//api:harness the span log as the asic, faults, netsim and obs tests read it
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	out := make([]SpanEvent, 0, t.Len())
	t.Each(func(ev *SpanEvent) { out = append(out, *ev) })
	return out
}

// Journey returns the retained events of one packet, oldest first —
// the reconstructable per-hop record the ndb debugger consumes.
func (t *Tracer) Journey(uid uint64) []SpanEvent {
	var out []SpanEvent
	t.Each(func(ev *SpanEvent) {
		if ev.UID == uid {
			out = append(out, *ev)
		}
	})
	return out
}

// ReportSelf says what an export of the log is worth, for the CLIs to
// call before writing one: the gauges obs/spans_total and
// obs/spans_dropped are set in reg (a nil reg takes none), and if events
// were overwritten one line on errW says how many and gives the time of
// the earliest one still held.
func (t *Tracer) ReportSelf(reg *Registry, errW io.Writer) {
	reg.Gauge("obs/spans_total").Set(int64(t.Total()))
	reg.Gauge("obs/spans_dropped").Set(int64(t.Dropped()))
	if t.Dropped() == 0 {
		return
	}
	oldest, seen := int64(0), false
	t.Each(func(ev *SpanEvent) {
		if !seen {
			oldest, seen = ev.At, true
		}
	})
	fmt.Fprintf(errW, "obs: span log overflowed: %d of %d events overwritten, earliest retained at_ns=%d; journeys that began before it are truncated\n",
		t.Dropped(), t.Total(), oldest)
}

// spanJSON is the JSONL wire form of a SpanEvent.
type spanJSON struct {
	At    int64  `json:"at_ns"`
	UID   uint64 `json:"uid"`
	Node  uint32 `json:"node"`
	Stage string `json:"stage"`
	A     uint64 `json:"a"`
	B     uint64 `json:"b"`
}

// WriteJSONL emits the retained events, one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	var err error
	t.Each(func(ev *SpanEvent) {
		if err == nil {
			err = enc.Encode(spanJSON{
				At: ev.At, UID: ev.UID, Node: ev.Node,
				Stage: ev.Stage.String(), A: ev.A, B: ev.B,
			})
		}
	})
	return err
}
