// Package obs is the simulation-time-aware telemetry subsystem: the
// structured observability layer the paper's thesis demands of the
// network is applied here to the reproduction itself.
//
// It has two halves:
//
//   - A metric Registry of counters, gauges and fixed log2-bucket
//     histograms, keyed hierarchically ("switch/3/port/1/queue_depth_bytes").
//     A count lives at one address: the plain word its owner increments.
//     The owner registers a collector (Registry.Collect) that names its
//     words, and Snapshot reads them — there is no second copy to keep
//     equal.  Histograms and gauges are pushed through handles resolved
//     once at construction time; every hot-path operation
//     (Histogram.Observe, Gauge.Set, Tracer.Record) is a safe no-op on a
//     nil receiver, so a dataplane built without telemetry pays nothing —
//     no branches on a config struct, no allocations, no atomic traffic.
//     Observe and Record are inlined nil checks (pinned by
//     //alloc:inline), so a nil handle costs its caller one branch and
//     no call.
//     The Counter handle type remains only for bench/tppbench's
//     obs.counter_inc_ns probe; no owner in this tree holds one.
//
//   - A packet-lifecycle Tracer: a bounded, lazily grown log of
//     SpanEvents recorded at each pipeline stage (parser, lookup, TCPU,
//     memory manager, egress queue, scheduler) and at each link
//     (serialization start, loss, delivery), from which any packet's
//     full journey can be reconstructed by UID and fed to the
//     internal/ndb debugger.
//
// Both halves export snapshots as JSONL (one object per line, for
// ingestion).
//
// Concurrency: nothing here locks.  Counters, gauges and histograms are
// plain words and the registry's name maps are plain maps, so a Registry
// and its handles, like a Tracer, belong to the one goroutine that runs
// the simulation they are wired to (DESIGN §6): Observe, Set and Record
// are called from it, and Each, Events, Journey, Snapshot and the
// exporters are called when it is quiescent (between RunUntil calls, or
// after the run).  Two simulations share no registry and no tracer, so
// they may run on two goroutines; the race-detector test run (make race,
// with chaos.TestSimsRunSideBySide) is the proof that nothing is shared.
package obs
