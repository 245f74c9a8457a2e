package main

// perLayer are the traced run's metrics, one layer (package) per
// prefix.  Each is either read from the traced workload run (driver.*
// phase splits, public counters, runtime.*) or timed by a layer probe: a
// tight loop over one public call, fed the workload's own packet shapes.
// bench/README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{"driver.build_ns_per_pkt", "ns"},
	{"driver.send_ns_per_pkt", "ns"},
	{"driver.run_ns_per_pkt", "ns"},
	{"driver.collect_ns_per_pkt", "ns"},
	{"driver.ops_per_s", "1/s"},
	{"driver.us_per_op_p50", "us"},
	{"driver.us_per_op_p90", "us"},
	{"driver.us_per_op_p99", "us"},
	{"driver.unattributed_share", "ratio"},
	{"driver.trace_overhead_ratio", "ratio"},
	{"driver.sim_s_per_s", "s/s"},

	{"netsim.event_ns_d64", "ns"},
	{"netsim.event_ns_d4096", "ns"},
	{"netsim.event_ns_peak", "ns"},
	{"netsim.closure_event_ns", "ns"},
	{"netsim.channel_send_ns", "ns"},
	{"netsim.pending_at_inject", "count"},
	{"netsim.pending_peak", "count"},

	{"core.clone_recycle_ns", "ns"},
	{"core.newtpp_ns", "ns"},
	{"core.tpp_parse_ns", "ns"},
	{"core.tpp_serialize_ns", "ns"},

	{"endhost.newpacket_ns", "ns"},
	{"endhost.nic_send_ns", "ns"},
	{"endhost.receive_ns", "ns"},
	{"endhost.nic_drops", "count"},
	{"endhost.nic_rejected", "count"},

	{"asic.switch_ns_bare", "ns"},
	{"asic.switch_ns_tpp", "ns"},
	{"asic.queue_enq_deq_ns", "ns"},
	{"asic.pkts_switched", "count"},
	{"asic.tpps_executed", "count"},
	{"asic.tpps_denied", "count"},
	{"asic.tpps_throttled", "count"},
	{"asic.tpps_stripped", "count"},
	{"asic.drop_bytes", "B"},
	{"asic.prog_cache_hit_ratio", "ratio"},

	{"l2.lookup_ns", "ns"},
	{"l3.lookup_ns", "ns"},
	{"tcam.match_ns", "ns"},

	{"tcpu.interp_ns", "ns"},
	{"tcpu.compiled_ns", "ns"},
	{"tcpu.cache_get_ns", "ns"},
	{"tcpu.compile_ns", "ns"},
	{"tcpu.cache_hit_ratio", "ratio"},
	{"tcpu.cstore_commit_ratio", "ratio"},

	{"guard.checked_exec_overhead_ns", "ns"},
	{"guard.denied_share", "ratio"},

	{"verify.program_ns", "ns"},
	{"asm.assemble_ns", "ns"},

	{"obs.span_record_ns", "ns"},
	{"obs.counter_inc_ns", "ns"},
	{"obs.hist_observe_ns", "ns"},
	{"obs.snapshot_ms", "ms"},
	{"obs.spans_per_pkt", "count"},
	{"obs.spans_dropped", "count"},
	{"obs.pipeline_overhead_ratio", "ratio"},

	{"rcp.star_run_ms", "ms"},
	{"rcp.baseline_run_ms", "ms"},
	{"rcp.allocs_per_sim_s", "count"},

	{"fabric.diff_us", "us"},
	{"fabric.apply_us", "us"},
	{"fabric.verify_us", "us"},
	{"fabric.converge_rounds", "count"},
	{"scenario.parse_us", "us"},
	{"chaos.hostile_run_ms", "ms"},
	{"chaos.reflex_run_ms", "ms"},
	{"reflex.transit_ns", "ns"},

	{"runtime.gc_count", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.mem_sys_mb", "MB"},
}

// ratio is a/b, or whenEmpty when nothing was counted.
func ratio(a, b uint64, whenEmpty float64) float64 {
	if b == 0 {
		return whenEmpty
	}
	return float64(a) / float64(b)
}

// layerMetrics assembles the traced run's report: what the traced
// workload run itself measured, then the layer probes.
func layerMetrics(r *run) map[string]float64 {
	m := map[string]float64{}
	w := r.w
	c := r.inst.counts()

	plain, traced := sortedCopy(r.plain), sortedCopy(r.traced)
	m["driver.ops_per_s"] = float64(r.timedOps-r.timedFailed) / r.elapsed.Seconds()
	m["driver.us_per_op_p50"] = percentile(plain, 0.5)
	m["driver.us_per_op_p90"] = percentile(plain, 0.9)
	m["driver.us_per_op_p99"] = percentile(plain, 0.99)
	// Compared at p10, where neither the collector nor a noisy neighbour
	// is in the sample (see the README on the two modes of a step).
	if p10 := percentile(plain, 0.1); p10 > 0 {
		m["driver.trace_overhead_ratio"] = percentile(traced, 0.1) / p10
	}
	steps := float64(len(plain) + len(traced))
	m["driver.sim_s_per_s"] = steps * w.simSec / r.elapsed.Seconds()
	if w.pkt != nil {
		tracedPkts := float64(len(traced) * w.batch)
		m["driver.build_ns_per_pkt"] = float64(r.tr.phase[phBuild]) / tracedPkts
		m["driver.send_ns_per_pkt"] = float64(r.tr.phase[phSend]) / tracedPkts
		m["driver.run_ns_per_pkt"] = float64(r.tr.phase[phRun]) / tracedPkts
		m["driver.collect_ns_per_pkt"] = float64(r.tr.phase[phCollect]) / tracedPkts
	}

	m["netsim.pending_at_inject"] = ratio(c.pendingInject, c.batches, 0)
	m["endhost.nic_drops"] = float64(c.nicDrops)
	m["endhost.nic_rejected"] = float64(c.nicRejected)
	m["asic.pkts_switched"] = float64(c.switched)
	m["asic.tpps_executed"] = float64(c.tppsExecuted)
	m["asic.tpps_denied"] = float64(c.tppsDenied)
	m["asic.tpps_throttled"] = float64(c.tppsThrottled)
	m["asic.tpps_stripped"] = float64(c.tppsStripped)
	m["asic.drop_bytes"] = float64(c.dropBytes)
	// A switch that ran every program from the NIC's attached
	// compilation never consulted its own cache: no misses.
	m["asic.prog_cache_hit_ratio"] = ratio(c.cacheHits, c.cacheHits+c.cacheMisses, 1)
	m["tcpu.cstore_commit_ratio"] = ratio(c.cstoreCommits, c.cstoresSent, 0)
	m["guard.denied_share"] = ratio(c.faulted, c.pkts, 0)
	m["obs.spans_per_pkt"] = ratio(c.spans, c.pkts, 0)
	m["obs.spans_dropped"] = float64(c.spansDropped)

	m["runtime.gc_count"] = float64(r.ms1.NumGC - r.ms0.NumGC)
	m["runtime.gc_pause_ms"] = float64(r.ms1.PauseTotalNs-r.ms0.PauseTotalNs) / 1e6
	m["runtime.gc_cpu_share"] = r.ms1.GCCPUFraction
	m["runtime.mem_sys_mb"] = float64(r.ms1.Sys) / 1e6

	runProbes(w, r.o.seed, m)
	return m
}
