// Package inband is the dataplane-computed telemetry plane: network
// measurements that are *taken by the dataplane itself* — TPPs
// CSTORE-bucketing samples into switch SRAM counters, and fixed-function
// spin-bit observers inferring RTT from a single alternating header
// bit — rather than computed host-side by the simulator as internal/obs
// does.
//
// Three pieces compose:
//
//   - HistWriter: an end-host that folds its measured RTT samples into a
//     power-of-two histogram living in a switch's SRAM, one verified,
//     tenant-stamped CSTORE TPP per increment.  The writer is the single
//     writer of its window, which turns CSTORE's compare-and-store into
//     an exactly-once increment protocol: a lost echo is retried and the
//     retry's observed value proves whether the first attempt applied,
//     and the switch's boot epoch (read atomically in the same TPP)
//     proves whether a crash wiped the window, in which case the writer
//     re-bases and replays so the current epoch's SRAM converges back to
//     the full sample multiset.
//
//   - Collector: a control-plane end-host that periodically sweeps the
//     window with gated LOAD TPPs (epoch and values read atomically per
//     chunk) and folds the sweeps through endhost.RegionPoller into
//     obs.Histogram accumulations: a word re-bases on an epoch bump or a
//     value regression, deltas are never negative, and a word's first
//     swept value counts as data.
//
//   - The spin-bit observer (asic.Switch.WatchSpin): a passive,
//     fixed-function comparator that infers a flow's RTT entirely at the
//     switch from core.SpinBit transitions, bucketing edge intervals
//     into an SRAM window with zero end-host cooperation; SpinFlow is
//     the endpoint protocol driving the bit.
//
// Everything buckets with obs.BucketOf, so dataplane histograms and
// host-side ground truth are comparable bucket-for-bucket, and every
// applied CSTORE is accounted once across the switch's cstore_commits
// count and a StageCStore span — the reconciliation the scenario tests
// assert exactly, across switch crash-restarts.
package inband
