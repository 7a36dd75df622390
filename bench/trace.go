package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"allforone/internal/protocol"
	"allforone/internal/sim"
	"allforone/internal/smr"
)

// span is one call the bench made into a layer (or into itself: bench.gen,
// bench.check). Times are nanoseconds since the tracer was made; Parent
// indexes the enclosing span (-1: none); spans of one pass share Pass.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Pass    int    `json:"pass"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: that is the tracing-off path every timed pass takes. Only the
// bench's main goroutine records, so there is no lock.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, pass int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, StartNS: time.Since(t.t0).Nanoseconds(), Parent: parent, Pass: pass})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// Layers a CPU sample can be billed to. A sample belongs to the layer of
// its innermost frame inside allforone/internal/<pkg>, so library and
// runtime work (sorting, copying, allocating) is billed to the layer that
// asked for it; samples with no repo frame at all are runtime_bg.
var cpuLayers = []string{
	"vclock", "mailbox", "netsim", "driver", "protocol", "core", "benor", "mpcoin",
	"smr", "multivalued", "gossip", "allconcur", "overlay", "harness", "shmem",
	"other", "runtime_bg",
}

const (
	repoPrefix   = "allforone/internal/"
	benchOwnFunc = "main.benchOwn"
	layerBench   = "bench" // the benchmark's own work: left out of the shares
)

func layerOf(funcs []string) string {
	layer := "runtime_bg"
	found := false
	for _, fn := range funcs {
		if fn == benchOwnFunc {
			return layerBench
		}
		if found || !strings.HasPrefix(fn, repoPrefix) {
			continue
		}
		found = true
		pkg, _, _ := strings.Cut(fn[len(repoPrefix):], ".")
		switch {
		case pkg == "consensusobj" || pkg == "shconsensus":
			layer = "shmem"
		case slices.Contains(cpuLayers, pkg):
			layer = pkg
		default:
			layer = "other"
		}
	}
	return layer
}

// funcShare is one line of the flat profile kept in the trace file.
type funcShare struct {
	Func  string  `json:"func"`
	Layer string  `json:"layer"`
	Share float64 `json:"share"`
}

// attribute turns profile samples into per-layer shares of the system's CPU
// samples (the benchmark's own are set aside) and the leading functions by
// self time.
func attribute(samples []profSample) (shares map[string]float64, top []funcShare) {
	perLayer := map[string]int64{}
	perFunc := map[string]int64{}
	funcLayer := map[string]string{}
	var total int64
	for _, s := range samples {
		layer := layerOf(s.funcs)
		if layer == layerBench || len(s.funcs) == 0 {
			continue
		}
		perLayer[layer] += s.count
		perFunc[s.funcs[0]] += s.count
		funcLayer[s.funcs[0]] = layer
		total += s.count
	}
	shares = make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = float64(perLayer[l]) / float64(max(total, 1))
	}
	for fn, n := range perFunc {
		top = append(top, funcShare{Func: fn, Layer: funcLayer[fn], Share: float64(n) / float64(total)})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].Share != top[j].Share {
			return top[i].Share > top[j].Share
		}
		return top[i].Func < top[j].Func
	})
	if len(top) > 20 {
		top = top[:20]
	}
	return shares, top
}

// runtimeCounters is a reading of the Go runtime's cumulative counters.
type runtimeCounters struct {
	cpuS, gcCPUS, allocBytes, allocObjects float64
}

// addDelta adds the growth from `from` to `to`.
func (c *runtimeCounters) addDelta(from, to runtimeCounters) {
	c.cpuS += to.cpuS - from.cpuS
	c.gcCPUS += to.gcCPUS - from.gcCPUS
	c.allocBytes += to.allocBytes - from.allocBytes
	c.allocObjects += to.allocObjects - from.allocObjects
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return runtimeCounters{
		cpuS:         cpuSeconds(),
		gcCPUS:       s[0].Value.Float64(),
		allocBytes:   float64(s[1].Value.Uint64()),
		allocObjects: float64(s[2].Value.Uint64()),
	}
}

// passCounts folds one pass's Outcomes into the exact boundary counts.
// Everything here is simulated behaviour: it must not differ between two
// passes of the same inputs, on any machine.
func passCounts(outs []*protocol.Outcome) map[string]float64 {
	c := map[string]float64{}
	peak := func(name string, v int64) {
		if float64(v) > c[name] {
			c[name] = float64(v)
		}
	}
	for _, d := range exactCounts {
		c[d.Name] = 0
	}
	for _, o := range outs {
		if o == nil {
			continue
		}
		c["vclock.steps"] += float64(o.Steps)
		c["vclock.events_scheduled"] += float64(o.Sched.EventsScheduled)
		c["vclock.cascades"] += float64(o.Sched.WheelCascades)
		peak("vclock.max_bucket_depth", o.Sched.MaxBucketDepth)
		c["vclock.shard_events"] += float64(o.Sched.ShardEvents)
		c["vclock.expand_jobs"] += float64(o.Sched.ExpandJobs)
		c["vclock.burst_jobs"] += float64(o.Sched.BurstJobs)
		c["vclock.pool_flushes"] += float64(o.Sched.PoolFlushes)
		peak("vclock.max_shard_stage", o.Sched.MaxShardStage)
		c["netsim.msgs_sent"] += float64(o.Metrics.MsgsSent)
		c["netsim.msgs_delivered"] += float64(o.Metrics.MsgsDelivered)
		c["netsim.broadcasts"] += float64(o.Metrics.Broadcasts)
		c["netsim.pooled_payload_bytes"] += float64(o.Sched.PooledPayloadBytes)
		c["sim.virtual_ms"] += float64(o.VirtualTime) / float64(time.Millisecond)
		peak("sim.max_round", o.Metrics.MaxRound)
		c["sim.rounds_total"] += float64(o.Metrics.RoundsTotal)
		c["sim.decide_msgs"] += float64(o.Metrics.DecideMsgs)
		c["sim.cons_invocations"] += float64(o.Metrics.ConsInvocations)
		c["sim.coin_flips"] += float64(o.Metrics.CoinFlips)
		c["sim.decided_procs"] += float64(o.CountStatus(sim.StatusDecided))
		c["sim.crashed_procs"] += float64(o.CountStatus(sim.StatusCrashed))
		if res, ok := o.Raw.(*smr.Result); ok {
			slots := 0
			for _, rep := range res.Replicas {
				slots = max(slots, len(rep.Log))
			}
			c["sim.slots_committed"] += float64(slots)
		}
		c["harness.runs"]++
	}
	if sent := c["netsim.msgs_sent"]; sent > 0 {
		c["netsim.delivered_ratio"] = c["netsim.msgs_delivered"] / sent
	}
	if slots := c["sim.slots_committed"]; slots > 0 {
		c["sim.virtual_ms_per_slot"] = c["sim.virtual_ms"] / slots
		c["sim.msgs_per_slot"] = c["netsim.msgs_sent"] / slots
	}
	return c
}

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Spans      []span             `json:"spans"`
	CPUShares  map[string]float64 `json:"cpu_share"`
	TopFuncs   []funcShare        `json:"top_funcs"`
	CPUSamples int64              `json:"cpu_samples"`
}

// traced is part A of the per-layer metrics: what the traced passes of one
// workload measured.
type traced struct {
	r      *runner
	values map[string]float64
}

// result adds the layer drivers' unit costs (part B) and shapes the whole as
// the --trace 1 result.
func (t *traced) result(drivers map[string]float64) result {
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		if v, ok := t.values[d.Name]; ok {
			out[d.Name] = metric{Value: v, Unit: d.Unit}
		} else if v, ok := drivers[d.Name]; ok {
			out[d.Name] = metric{Value: v, Unit: d.Unit}
		}
	}
	return t.r.result(out)
}

// runTraced is the --trace 1 run of one workload: the traced passes take
// half of cfg.seconds, the layer drivers the other half.
func runTraced(w workload, cfg config) (result, error) {
	t, err := tracedPasses(w, cfg)
	if err != nil {
		return result{}, err
	}
	drivers, err := runLayerDrivers(driverSampleTime(cfg.seconds), cfg.driverSamples)
	if err != nil {
		return result{}, err
	}
	return t.result(drivers), nil
}

// tracedPasses runs a warm-up and then pairs of passes — one plain (tracing
// off: the base of trace_overhead and of the per-second rates), one under
// spans and the CPU profiler, alternating so that a drift of the machine
// hits both kinds alike — until half of cfg.seconds has gone; then two
// passes at Workers = 1. It writes the trace and the profiles to cfg.outDir.
func tracedPasses(w workload, cfg config) (*traced, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	r := &runner{w: w, scale: cfg.scale, seed: cfg.seed}
	r.warmUp(time.Now())

	tr := newTracer()
	var (
		plain, profiled []passStats
		samples         []profSample
		used            runtimeCounters
	)
	for start := time.Now(); len(profiled) < cfg.minPasses || time.Since(start).Seconds() < cfg.seconds/2; {
		r.tr = nil
		plain = append(plain, r.next())

		r.tr = tr
		var prof bytes.Buffer
		before := readRuntime()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("bench: starting the CPU profile: %w", err)
		}
		profiled = append(profiled, r.next())
		pprof.StopCPUProfile()
		used.addDelta(before, readRuntime())

		part, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		samples = append(samples, part...)
		// One file per profiled pass; go tool pprof merges the files it is given.
		name := fmt.Sprintf("cpu-%s-%d.pprof", w.name, len(profiled))
		if err := os.WriteFile(filepath.Join(cfg.outDir, name), prof.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
	}
	r.tr = nil
	plainWall := median(walls(plain))

	// What the expansion pool gives over expanding inline. Outcomes are the
	// same at every width, so these passes are held to the warm-up's like
	// any other.
	r.serial = true
	serial := r.timedPasses(0, 2)
	r.serial = false

	shares, top := attribute(samples)
	var nSamples int64
	for _, s := range samples {
		nSamples += s.count
	}
	counts := profiled[0].counts
	for _, p := range slices.Concat(plain, profiled[1:], serial) {
		if !sameCounts(counts, p.counts) && r.firstErr == nil {
			r.failed++
			r.firstErr = fmt.Errorf("%s: boundary counts differ between passes of the same inputs", w.name)
		}
	}

	m := map[string]float64{}
	for l, s := range shares {
		m["cpu_share."+l] = s
	}
	for k, v := range counts {
		m[k] = v
	}
	n := float64(len(profiled))
	m["runtime.cpu_s"] = used.cpuS / n
	m["runtime.gc_share"] = 0
	if used.cpuS > 0 {
		m["runtime.gc_share"] = used.gcCPUS / used.cpuS
	}
	m["runtime.alloc_mb"] = used.allocBytes / n / (1 << 20)
	m["runtime.allocs_k"] = used.allocObjects / n / 1000
	m["trace_overhead"] = median(walls(profiled))/plainWall - 1
	m["vclock.events_per_s"] = counts["vclock.steps"] / plainWall
	m["harness.runs_per_s"] = counts["harness.runs"] / plainWall
	m["vclock.pool_speedup"] = median(walls(serial)) / plainWall

	tf := traceFile{Workload: w.name, Seed: cfg.seed, Spans: tr.spans, CPUShares: shares, TopFuncs: top, CPUSamples: nSamples}
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), data, 0o644); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return &traced{r: r, values: m}, nil
}

func sameCounts(a, b map[string]float64) bool {
	for _, d := range exactCounts {
		if a[d.Name] != b[d.Name] {
			return false
		}
	}
	return true
}
