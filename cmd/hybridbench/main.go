// Command hybridbench regenerates the reproduction's experiment tables
// (E1…E8, one per figure/claim of the paper, plus the extension
// experiments E9/E10 — see DESIGN.md §5 and EXPERIMENTS.md) and hosts
// the adversarial schedule search (-search, DESIGN.md §9).
//
// Examples:
//
//	hybridbench                 # run the full suite with default trials
//	hybridbench -exp E2,E5      # run selected experiments
//	hybridbench -trials 200     # more trials per cell
//	hybridbench -json           # machine-readable per-experiment timings
//	hybridbench -search         # hunt worst-case schedules (hybrid, n=8)
//	hybridbench -search -search-objective rounds -search-budget 2000
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"allforone/internal/adversary"
	"allforone/internal/failures"
	"allforone/internal/harness"
	"allforone/internal/model"
	"allforone/internal/protocol"
	_ "allforone/internal/protocols"
	"allforone/internal/sim"
)

// jsonExperiment is one experiment's machine-readable record (-json): the
// identity, wall-clock duration, the keyed scalar findings the tables are
// rendered from — the seed format for BENCH_*.json trajectory tracking —
// and the engine-work figures (events/sec, allocs/run) the -bench-compare
// value gate trends across committed snapshots.
type jsonExperiment struct {
	ID       string             `json:"id"`
	Title    string             `json:"title"`
	Seconds  float64            `json:"seconds"`
	Findings map[string]float64 `json:"findings"`
	// Runs / Steps / EventsScheduled roll up the virtual scheduler's work
	// over the experiment's trials (deterministic; zero under -engine
	// realtime). EventsPerSec = Steps/Seconds and AllocsPerRun are
	// machine-dependent throughput figures for trend tracking.
	Runs            int     `json:"runs,omitempty"`
	Steps           int64   `json:"steps,omitempty"`
	EventsScheduled int64   `json:"events_scheduled,omitempty"`
	EventsPerSec    float64 `json:"events_per_sec,omitempty"`
	AllocsPerRun    float64 `json:"allocs_per_run,omitempty"`
	// BurstJobs / PooledPayloadBytes / MaxShardStage total the off-token
	// expansion path's work across the experiment's trials (DESIGN.md
	// §12); zero for experiments below the sharding floor.
	BurstJobs          int64 `json:"burst_jobs,omitempty"`
	PooledPayloadBytes int64 `json:"pooled_payload_bytes,omitempty"`
	MaxShardStage      int64 `json:"max_shard_stage,omitempty"`
}

// jsonFinding is the machine-readable form of an adversary finding: the
// complete replayable counterexample (seed + skew matrix + crash plan)
// plus its cost fingerprint.
type jsonFinding struct {
	Probe         int              `json:"probe"`
	Verdict       string           `json:"verdict"`
	Score         float64          `json:"score"`
	Seed          int64            `json:"seed"`
	Steps         int64            `json:"steps"`
	VirtualTimeNS int64            `json:"virtual_time_ns"`
	Rounds        int              `json:"rounds"`
	CrashesNS     map[string]int64 `json:"crashes_ns,omitempty"`
	SkewMatrixNS  [][]int64        `json:"skew_matrix_ns,omitempty"`
	Error         string           `json:"error,omitempty"`
}

// jsonSearch is the -search -json document body.
type jsonSearch struct {
	Protocol   string      `json:"protocol"`
	N          int         `json:"n"`
	Clusters   int         `json:"clusters"`
	Budget     int         `json:"budget"`
	Objective  string      `json:"objective"`
	Strategy   string      `json:"strategy"`
	SearchSeed int64       `json:"search_seed"`
	Decided    int         `json:"decided"`
	Undecided  int         `json:"undecided"`
	BoundedOut int         `json:"bounded_out"`
	Violations int         `json:"violations"`
	Worst      jsonFinding `json:"worst"`
	// Reproduced reports that re-running the worst finding's Scenario
	// yielded the bit-identical Outcome — the replay contract.
	Reproduced bool `json:"reproduced"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Trials   int    `json:"trials"`
	SeedBase int64  `json:"seed_base"`
	Engine   string `json:"engine"`
	// Workers is the expansion-pool width the snapshot was recorded at
	// (-workers; 0 = all CPUs). Purely an axis label: the findings are
	// identical at every width, only the throughput figures move.
	Workers     int              `json:"workers,omitempty"`
	Experiments []jsonExperiment `json:"experiments,omitempty"`
	// WorkersSweep is the -workers-sweep scaling curve (sweep.go): wall
	// figures per expansion-pool width, plus the cross-width equality
	// verdict.
	WorkersSweep *jsonSweep  `json:"workers_sweep,omitempty"`
	Search       *jsonSearch `json:"search,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hybridbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hybridbench", flag.ContinueOnError)
	var (
		exps      = fs.String("exp", "all", "comma-separated experiment ids (E1..E10, E10D, A1) or 'all'")
		trials    = fs.Int("trials", 100, "trials per table cell")
		trialsMin = fs.Int("trials-min", 1, "repeat each experiment this many times and report the median-timed repetition (damps wall-clock noise in BENCH snapshots)")
		seed      = fs.Int64("seed", 1, "seed base (experiments) / search seed (-search)")
		timeout   = fs.Duration("timeout", 20*time.Second, "per-run timeout (realtime engine only)")
		engine    = fs.String("engine", "virtual", "execution engine for hybrid trials: virtual or realtime")
		parallel  = fs.Int("parallel", 0, "worker pool size for independent trials/probes (0 = all CPUs)")
		workers   = fs.Int("workers", 0, "expansion-pool width inside each virtual run (0 = all CPUs; the Outcome is identical at every width)")
		asJSON    = fs.Bool("json", false, "emit machine-readable output instead of tables")

		workersSweep = fs.Bool("workers-sweep", false, "run the multi-core scaling curve (W in 1,2,4,8) after the experiments and attach it to the report; combine with -exp none to run the sweep alone")
		sweepN       = fs.Int("sweep-n", 4096, "-workers-sweep: process count of the sparse-overlay cells")

		benchCompare = fs.Bool("bench-compare", false, "compare two BENCH_*.json snapshots (old.json new.json) and fail on a regression beyond -tolerance")
		tolerance    = fs.Float64("tolerance", 0.25, "-bench-compare: maximum tolerated fractional regression per axis (0.25 = fail below 75% of the old figure)")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file when the run finishes")

		search         = fs.Bool("search", false, "run the adversarial schedule search instead of the experiment suite")
		searchProto    = fs.String("search-protocol", "hybrid", "registry protocol to attack")
		searchN        = fs.Int("search-n", 8, "process count of the search topology")
		searchClusters = fs.Int("search-clusters", 3, "cluster count of the search topology")
		searchBudget   = fs.Int("search-budget", 500, "number of probes")
		searchBatch    = fs.Int("search-batch", 0, "probes per incumbent update (0 = default)")
		searchObj      = fs.String("search-objective", "steps", "objective: rounds, steps, or vtime")
		searchStrat    = fs.String("search-strategy", "combined", "mutation strategy: seed, skew, crash, or combined")
		searchCrashes  = fs.Int("search-crashes", 1, "timed crashes in the base plan (jittered by the crash strategy)")
		searchMaxDelay = fs.Duration("search-max-delay", 200*time.Microsecond, "skew-matrix entry cap")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hybridbench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hybridbench: -memprofile:", err)
			}
		}()
	}

	if *benchCompare {
		files := fs.Args()
		if len(files) != 2 {
			return fmt.Errorf("-bench-compare wants exactly two snapshot files, got %d", len(files))
		}
		if *tolerance <= 0 || *tolerance >= 1 {
			return fmt.Errorf("-tolerance %v out of range (0, 1)", *tolerance)
		}
		return runBenchCompare(files[0], files[1], *tolerance, out)
	}

	if *search {
		return runSearch(searchOptions{
			protocol:  *searchProto,
			n:         *searchN,
			clusters:  *searchClusters,
			budget:    *searchBudget,
			batch:     *searchBatch,
			objective: *searchObj,
			strategy:  *searchStrat,
			crashes:   *searchCrashes,
			maxDelay:  *searchMaxDelay,
			seed:      *seed,
			parallel:  *parallel,
			asJSON:    *asJSON,
		}, out)
	}

	ids := harness.ExperimentIDs
	switch *exps {
	case "all":
	case "none":
		ids = nil
	default:
		ids = nil
		for _, id := range strings.Split(*exps, ",") {
			ids = append(ids, strings.TrimSpace(strings.ToUpper(id)))
		}
	}
	eng, err := sim.ParseEngine(*engine)
	if err != nil {
		return err
	}
	if *trialsMin < 1 {
		return fmt.Errorf("-trials-min %d must be at least 1", *trialsMin)
	}
	opts := harness.Options{
		Trials: *trials, SeedBase: *seed, Timeout: *timeout,
		Engine: eng, Parallelism: *parallel, Workers: *workers,
	}

	if *asJSON {
		doc := jsonReport{Trials: opts.Trials, SeedBase: opts.SeedBase, Engine: eng.String(), Workers: *workers}
		for _, id := range ids {
			rep, m, err := runInstrumented(id, opts, *trialsMin)
			if err != nil {
				return err
			}
			je := jsonExperiment{
				ID:                 rep.ID,
				Title:              rep.Title,
				Seconds:            m.seconds,
				Findings:           rep.Findings,
				Runs:               rep.Perf.Runs,
				Steps:              rep.Perf.Steps,
				EventsScheduled:    rep.Perf.EventsScheduled,
				BurstJobs:          rep.Perf.BurstJobs,
				PooledPayloadBytes: rep.Perf.PooledPayloadBytes,
				MaxShardStage:      rep.Perf.MaxShardStage,
			}
			if m.seconds > 0 {
				je.EventsPerSec = float64(rep.Perf.Steps) / m.seconds
			}
			if rep.Perf.Runs > 0 {
				je.AllocsPerRun = float64(m.mallocs) / float64(rep.Perf.Runs)
			}
			doc.Experiments = append(doc.Experiments, je)
		}
		if *workersSweep {
			sw, err := runWorkersSweep(*sweepN)
			if err != nil {
				return err
			}
			doc.WorkersSweep = sw
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	fmt.Fprintf(out, "allforone experiment suite — %d trials per cell, seed base %d\n", *trials, *seed)
	fmt.Fprintf(out, "reproducing: Raynal & Cao, ICDCS 2019 (see EXPERIMENTS.md)\n\n")
	for _, id := range ids {
		rep, m, err := runInstrumented(id, opts, *trialsMin)
		if err != nil {
			return err
		}
		if err := rep.Table.Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "(%s completed in %v", id, time.Duration(m.seconds*float64(time.Second)).Round(time.Millisecond))
		if rep.Perf.Steps > 0 && m.seconds > 0 {
			fmt.Fprintf(out, " — %.2gM events/sec over %d runs, %.0f allocs/run",
				float64(rep.Perf.Steps)/m.seconds/1e6, rep.Perf.Runs,
				float64(m.mallocs)/float64(max(rep.Perf.Runs, 1)))
		}
		fmt.Fprintf(out, ")\n\n")
	}
	if *workersSweep {
		sw, err := runWorkersSweep(*sweepN)
		if err != nil {
			return err
		}
		renderSweep(sw, out)
	}
	return nil
}

// runMeasure captures one experiment's wall clock and heap-allocation count.
type runMeasure struct {
	seconds float64
	mallocs uint64
}

// runInstrumented executes one experiment wrapped in wall-clock and
// allocation measurement (process-wide malloc counts: run experiments
// sequentially, as this CLI does, for meaningful allocs/run). With k > 1 it
// repeats the experiment and keeps the median-timed repetition (seconds and
// mallocs from the same repetition, so allocs/run stays self-consistent) —
// the findings and scheduler counters are deterministic across repetitions,
// only the wall clock varies.
func runInstrumented(id string, opts harness.Options, k int) (*harness.Report, runMeasure, error) {
	var rep *harness.Report
	measures := make([]runMeasure, 0, k)
	for range k {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		r, err := harness.Run(id, opts)
		secs := time.Since(start).Seconds()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, runMeasure{}, fmt.Errorf("%s: %w", id, err)
		}
		rep = r
		measures = append(measures, runMeasure{seconds: secs, mallocs: m1.Mallocs - m0.Mallocs})
	}
	slices.SortFunc(measures, func(a, b runMeasure) int {
		return cmp.Compare(a.seconds, b.seconds)
	})
	return rep, measures[len(measures)/2], nil
}

// loadSnapshot reads one BENCH_*.json document.
func loadSnapshot(path string) (*jsonReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc jsonReport
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// runBenchCompare renders the trend between two committed BENCH_*.json
// snapshots and fails on a regression beyond the tolerance (-tolerance,
// default 25%) — the value gate on top of the schema gate. Per experiment
// present in both files it compares events/sec when both snapshots carry it
// (the engine-throughput axis) and falls back to wall seconds otherwise
// (older snapshots predate the events/sec field). Comparing committed
// snapshots — not a live run — keeps the gate independent of the CI
// machine's speed.
func runBenchCompare(oldPath, newPath string, tolerance float64, out io.Writer) error {
	minRatio := 1 - tolerance
	oldDoc, err := loadSnapshot(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := loadSnapshot(newPath)
	if err != nil {
		return err
	}
	oldExp := make(map[string]jsonExperiment, len(oldDoc.Experiments))
	for _, e := range oldDoc.Experiments {
		oldExp[e.ID] = e
	}
	fmt.Fprintf(out, "benchmark trend: %s → %s\n", oldPath, newPath)
	if oldDoc.Trials != newDoc.Trials {
		fmt.Fprintf(out, "caution: snapshots use different -trials (%d vs %d); throughput figures are machine- and workload-dependent — record successive snapshots on comparable hardware with identical trials\n",
			oldDoc.Trials, newDoc.Trials)
	}
	fmt.Fprintf(out, "%-4s %14s %14s %8s  %s\n", "exp", "old", "new", "ratio", "axis")
	var regressions []string
	compared := 0
	for _, ne := range newDoc.Experiments {
		oe, ok := oldExp[ne.ID]
		if !ok {
			fmt.Fprintf(out, "%-4s %14s %14s %8s  new experiment\n", ne.ID, "—", "—", "—")
			continue
		}
		var oldVal, newVal float64
		var axis string
		switch {
		case oe.EventsPerSec > 0 && ne.EventsPerSec > 0:
			oldVal, newVal, axis = oe.EventsPerSec, ne.EventsPerSec, "events/sec"
		case oe.Seconds > 0 && ne.Seconds > 0:
			// Invert so higher is better on both axes.
			oldVal, newVal, axis = 1/oe.Seconds, 1/ne.Seconds, "runs/sec (1/seconds)"
		default:
			fmt.Fprintf(out, "%-4s %14s %14s %8s  no comparable axis\n", ne.ID, "—", "—", "—")
			continue
		}
		ratio := newVal / oldVal
		compared++
		marker := ""
		if ratio < minRatio {
			marker = "  ← REGRESSION"
			regressions = append(regressions, ne.ID)
		}
		fmt.Fprintf(out, "%-4s %14.3g %14.3g %7.2fx  %s%s\n", ne.ID, oldVal, newVal, ratio, axis, marker)
		// Second axis: allocation count per run is machine-independent, so
		// gate it whenever both snapshots carry the figure. Invert so higher
		// is better (fewer allocations), matching the throughput axis.
		if oe.AllocsPerRun > 0 && ne.AllocsPerRun > 0 {
			aRatio := oe.AllocsPerRun / ne.AllocsPerRun
			aMarker := ""
			if aRatio < minRatio {
				aMarker = "  ← REGRESSION"
				regressions = append(regressions, ne.ID+"(allocs)")
			}
			fmt.Fprintf(out, "%-4s %14.3g %14.3g %7.2fx  %s%s\n",
				ne.ID, oe.AllocsPerRun, ne.AllocsPerRun, aRatio, "allocs/run (lower is better)", aMarker)
		}
	}
	// An experiment present in the old snapshot but absent from the new one
	// must not silently escape the gate: a regressed experiment could hide
	// by being dropped or renamed.
	newIDs := make(map[string]bool, len(newDoc.Experiments))
	for _, e := range newDoc.Experiments {
		newIDs[e.ID] = true
	}
	var removed []string
	for _, e := range oldDoc.Experiments {
		if !newIDs[e.ID] {
			fmt.Fprintf(out, "%-4s %14s %14s %8s  removed from new snapshot\n", e.ID, "—", "—", "—")
			removed = append(removed, e.ID)
		}
	}
	if compared == 0 {
		return fmt.Errorf("no comparable experiments between %s and %s", oldPath, newPath)
	}
	if len(removed) > 0 {
		return fmt.Errorf("experiments present in %s are missing from %s: %s (retire them from both snapshots deliberately)",
			oldPath, newPath, strings.Join(removed, ", "))
	}
	if len(regressions) > 0 {
		return fmt.Errorf("throughput regressed >%.0f%% in: %s", 100*tolerance, strings.Join(regressions, ", "))
	}
	fmt.Fprintf(out, "no regression beyond %.0f%% across %d comparable experiments\n", 100*tolerance, compared)
	return nil
}

// searchOptions carries the resolved -search flags.
type searchOptions struct {
	protocol  string
	n         int
	clusters  int
	budget    int
	batch     int
	objective string
	strategy  string
	crashes   int
	maxDelay  time.Duration
	seed      int64
	parallel  int
	asJSON    bool
}

// searchBase builds the base scenario the search perturbs: a Blocks
// topology, alternating binary proposals (plus a concurrent writer/reader
// script workload, consumed when the attacked protocol runs register
// scripts — e.g. -search-protocol register -search-objective lin), and a
// timed minority crash plan for the jitter strategy to move around.
func searchBase(o searchOptions) (protocol.Scenario, error) {
	var sc protocol.Scenario
	part, err := model.Blocks(o.n, o.clusters)
	if err != nil {
		return sc, err
	}
	binary := make([]model.Value, o.n)
	for i := range binary {
		binary[i] = model.Value(int8(i % 2))
	}
	// Contended register scripts: every process writes its own value then
	// reads twice, staggered so windows overlap across processes — the
	// history shape linearizability counterexamples hide in.
	scripts := make([][]protocol.RegisterOp, o.n)
	for i := range scripts {
		scripts[i] = []protocol.RegisterOp{
			{Write: true, Val: fmt.Sprintf("v%d", i), After: time.Duration(i) * 10 * time.Microsecond},
			protocol.ReadOp(),
			{After: 30 * time.Microsecond},
		}
	}
	if o.crashes < 0 || o.crashes >= o.n {
		return sc, fmt.Errorf("search-crashes %d out of range [0,%d)", o.crashes, o.n)
	}
	var faults *failures.Schedule
	if o.crashes > 0 {
		faults = failures.NewSchedule(o.n)
		for k := 0; k < o.crashes; k++ {
			// Crash from the top id down (never the whole head cluster),
			// staggered so instants are distinct before any jitter.
			p := model.ProcID(o.n - 1 - k)
			if err := faults.SetTimed(p, 200*time.Microsecond+time.Duration(k)*50*time.Microsecond); err != nil {
				return sc, err
			}
		}
	}
	return protocol.Scenario{
		Protocol: o.protocol,
		Topology: protocol.Topology{Partition: part},
		Workload: protocol.Workload{Binary: binary, Scripts: scripts},
		Faults:   faults,
		Seed:     1,
		Bounds:   protocol.Bounds{MaxRounds: 100_000},
	}, nil
}

// describeFinding renders a finding into its machine-readable form.
func describeFinding(f *adversary.Finding) jsonFinding {
	jf := jsonFinding{
		Probe:   f.Probe,
		Verdict: f.Verdict.String(),
		Score:   f.Score,
		Seed:    f.Scenario.Seed,
	}
	if f.Err != nil {
		jf.Error = f.Err.Error()
	}
	if out := f.Outcome; out != nil {
		jf.Steps = out.Steps
		jf.VirtualTimeNS = int64(out.VirtualTime)
		jf.Rounds = out.MaxDecisionRound()
	}
	for _, tc := range f.Scenario.Faults.Timed() {
		if jf.CrashesNS == nil {
			jf.CrashesNS = make(map[string]int64)
		}
		jf.CrashesNS[tc.P.String()] = int64(tc.At)
	}
	if entries, ok := protocol.SkewMatrixEntries(f.Scenario.Profile); ok {
		jf.SkewMatrixNS = make([][]int64, len(entries))
		for i, row := range entries {
			jf.SkewMatrixNS[i] = make([]int64, len(row))
			for j, d := range row {
				jf.SkewMatrixNS[i][j] = int64(d)
			}
		}
	}
	return jf
}

// runSearch executes the adversarial schedule search and renders the
// report, confirming the worst finding's replay contract either way.
func runSearch(o searchOptions, out io.Writer) error {
	base, err := searchBase(o)
	if err != nil {
		return err
	}
	obj, err := adversary.ParseObjective(o.objective)
	if err != nil {
		return err
	}
	strat, err := adversary.ParseStrategy(o.strategy, o.maxDelay)
	if err != nil {
		return err
	}
	rep, err := adversary.Search(adversary.Config{
		Base:        base,
		Strategy:    strat,
		Objective:   obj,
		Budget:      o.budget,
		Batch:       o.batch,
		Parallelism: o.parallel,
		Seed:        o.seed,
	})
	if err != nil {
		return err
	}
	w := rep.Worst
	if w == nil {
		return fmt.Errorf("search returned no findings")
	}
	replayed, _, replayErr := w.Replay()
	var reproduced bool
	switch {
	case w.Outcome != nil:
		if replayErr != nil {
			return fmt.Errorf("replay of probe %d failed: %w", w.Probe, replayErr)
		}
		reproduced = reflect.DeepEqual(w.Outcome, replayed)
	case w.Err != nil:
		// Error-verdict finding: the replay must fail identically — a nil
		// Outcome on both sides proves nothing by itself.
		reproduced = replayErr != nil && replayErr.Error() == w.Err.Error()
	}

	if o.asJSON {
		doc := jsonReport{Search: &jsonSearch{
			Protocol:   o.protocol,
			N:          o.n,
			Clusters:   o.clusters,
			Budget:     o.budget,
			Objective:  rep.Objective,
			Strategy:   rep.Strategy,
			SearchSeed: o.seed,
			Decided:    rep.Decided,
			Undecided:  rep.Undecided,
			BoundedOut: rep.BoundedOut,
			Violations: rep.Violations,
			Worst:      describeFinding(w),
			Reproduced: reproduced,
		}}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	fmt.Fprintf(out, "adversarial schedule search — protocol %s, n=%d (%d clusters), budget %d probes\n",
		o.protocol, o.n, o.clusters, o.budget)
	fmt.Fprintf(out, "objective %s, strategy %s, search seed %d\n", rep.Objective, rep.Strategy, o.seed)
	fmt.Fprintf(out, "verdicts: %d decided, %d undecided, %d bounded-out, %d violations\n",
		rep.Decided, rep.Undecided, rep.BoundedOut, rep.Violations)
	fmt.Fprintf(out, "worst schedule: probe %d, verdict %s, %s score %.0f\n", w.Probe, w.Verdict, rep.Objective, w.Score)
	if oc := w.Outcome; oc != nil {
		fmt.Fprintf(out, "  steps %d, virtual time %v, max decision round %d\n", oc.Steps, oc.VirtualTime, oc.MaxDecisionRound())
	}
	fmt.Fprintf(out, "  scenario seed %d", w.Scenario.Seed)
	if timed := w.Scenario.Faults.Timed(); len(timed) > 0 {
		fmt.Fprintf(out, "; timed crashes:")
		for _, tc := range timed {
			fmt.Fprintf(out, " %v@%v", tc.P, tc.At)
		}
	}
	fmt.Fprintln(out)
	if entries, ok := protocol.SkewMatrixEntries(w.Scenario.Profile); ok {
		fmt.Fprintf(out, "  skew matrix (µs):\n")
		for _, row := range entries {
			fmt.Fprintf(out, "   ")
			for _, d := range row {
				fmt.Fprintf(out, " %5.1f", float64(d)/float64(time.Microsecond))
			}
			fmt.Fprintln(out)
		}
	}
	if reproduced {
		fmt.Fprintf(out, "replay: outcome reproduced bit-for-bit\n")
	} else {
		fmt.Fprintf(out, "replay: OUTCOME DIVERGED — determinism contract broken\n")
	}
	for _, f := range rep.Findings {
		jf := describeFinding(&f)
		fmt.Fprintf(out, "counterexample: probe %d verdict %s seed %d crashes %v\n", jf.Probe, jf.Verdict, jf.Seed, jf.CrashesNS)
	}
	if !reproduced {
		return fmt.Errorf("worst finding did not reproduce on replay")
	}
	return nil
}
