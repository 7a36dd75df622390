package main

// The metric tables: the single place a metric's name, unit, direction and
// bound are written down. BENCHMARK.json is printed from them (-describe)
// and the smoke test holds the two together.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the share of the parent's median a metric may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the host costs a user of the simulator sees, reported for
// every workload. Simulated statistics are deliberately not here: they move
// with seed luck and with legitimate schedule changes, and stay pinned by
// the repository's tier-1 tests; they are recorded exactly as sim.* layer
// metrics instead. The share of failed runs is not a metric either, because
// it is 0 on every workload by construction: it is the `failed` and
// `attempted` of every result, and any rise fails -compare.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.15},
}

// exactCounts are the boundary counts taken from Outcomes: simulated
// behaviour, identical between passes and between machines. A plain count
// of work is better lower; the few exceptions say so.
var exactCounts = []metricDef{
	count("vclock.steps"), count("vclock.events_scheduled"), count("vclock.cascades"),
	count("vclock.max_bucket_depth"), count("vclock.shard_events"), count("vclock.expand_jobs"),
	count("vclock.burst_jobs"), count("vclock.pool_flushes"), count("vclock.max_shard_stage"),
	count("netsim.msgs_sent"), count("netsim.msgs_delivered"),
	{Name: "netsim.delivered_ratio", Unit: "ratio", Better: higher},
	count("netsim.broadcasts"),
	{Name: "netsim.pooled_payload_bytes", Unit: "B", Better: lower},
	{Name: "sim.virtual_ms", Unit: "ms", Better: lower},
	count("sim.max_round"), count("sim.rounds_total"), count("sim.decide_msgs"),
	count("sim.cons_invocations"), count("sim.coin_flips"),
	{Name: "sim.decided_procs", Unit: "count", Better: higher},
	count("sim.crashed_procs"),
	{Name: "sim.slots_committed", Unit: "count", Better: higher},
	{Name: "sim.virtual_ms_per_slot", Unit: "ms", Better: lower},
	count("sim.msgs_per_slot"),
	{Name: "harness.runs", Unit: "count", Better: higher},
}

func count(name string) metricDef { return metricDef{Name: name, Unit: "count", Better: lower} }

// perLayer is every per-layer metric a --trace 1 run reports: part A from
// the traced passes (CPU shares, runtime cost, exact counts), part B from
// the layer drivers.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{Name: "cpu_share." + l, Unit: "ratio", Better: lower})
	}
	defs = append(defs,
		metricDef{Name: "runtime.cpu_s", Unit: "s", Better: lower},
		metricDef{Name: "runtime.gc_share", Unit: "ratio", Better: lower},
		metricDef{Name: "runtime.alloc_mb", Unit: "MB", Better: lower},
		metricDef{Name: "runtime.allocs_k", Unit: "count", Better: lower},
		metricDef{Name: "trace_overhead", Unit: "ratio", Better: lower},
		metricDef{Name: "vclock.events_per_s", Unit: "1/s", Better: higher},
		metricDef{Name: "harness.runs_per_s", Unit: "1/s", Better: higher},
		metricDef{Name: "vclock.pool_speedup", Unit: "ratio", Better: higher},
	)
	defs = append(defs, exactCounts...)
	for _, d := range layerDrivers {
		defs = append(defs, metricDef{Name: d.name, Unit: d.unit, Better: lower})
	}
	defs = append(defs, metricDef{Name: doublingRatio, Unit: "ratio", Better: lower})
	return defs
}()
