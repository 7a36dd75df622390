// Command hybridbench regenerates the reproduction's experiment tables
// (E1…E8, one per figure/claim of the paper, plus the extension
// experiments E9/E10/E10D and the ablation A1 — see DESIGN.md §8 and
// EXPERIMENTS.md), emits their findings as the claims ledger (-json;
// CLAIMS.json is that output at the defaults), and hosts the adversarial
// schedule search (-search, DESIGN.md §8).
//
// Examples:
//
//	hybridbench                 # run the full suite with default trials
//	hybridbench -exp E2,E5      # run selected experiments
//	hybridbench -trials 200     # more trials per cell
//	hybridbench -json           # machine-readable per-experiment findings
//	hybridbench -search         # hunt worst-case schedules (hybrid, n=8)
//	hybridbench -search -search-objective rounds -search-budget 2000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"time"

	"allforone/internal/adversary"
	"allforone/internal/failures"
	"allforone/internal/harness"
	"allforone/internal/model"
	"allforone/internal/protocol"
	_ "allforone/internal/protocols"
)

// jsonExperiment is one experiment's machine-readable record (-json): the
// identity and the keyed scalar findings the tables are rendered from.
// Every value is a deterministic function of (-trials, -seed), which is
// what lets CLAIMS.json be gated by exact equality.
type jsonExperiment struct {
	ID       string             `json:"id"`
	Title    string             `json:"title"`
	Findings map[string]float64 `json:"findings"`
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
	Trials      int              `json:"trials"`
	SeedBase    int64            `json:"seed_base"`
	Experiments []jsonExperiment `json:"experiments,omitempty"`
	Search      *jsonSearch      `json:"search,omitempty"`
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
		exps     = fs.String("exp", "all", "comma-separated experiment ids (E1..E10, E10D, A1) or 'all'")
		trials   = fs.Int("trials", 100, "trials per table cell")
		seed     = fs.Int64("seed", 1, "seed base (experiments) / search seed (-search)")
		parallel = fs.Int("parallel", 0, "worker pool size for independent trials/probes (0 = all CPUs)")
		asJSON   = fs.Bool("json", false, "emit machine-readable output instead of tables")

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

	// The output is a document of record: it must describe what ran, so a
	// trial count the harness would silently replace by its default, and an
	// id list that would emit an unnamed or a repeated record, are refused.
	if *trials < 1 {
		return fmt.Errorf("-trials %d must be at least 1", *trials)
	}
	ids := harness.ExperimentIDs
	if *exps != "all" {
		ids = nil
		for _, id := range strings.Split(*exps, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if id == "" {
				return fmt.Errorf("-exp %q contains an empty experiment id", *exps)
			}
			if slices.Contains(ids, id) {
				return fmt.Errorf("-exp %q names experiment %s twice", *exps, id)
			}
			ids = append(ids, id)
		}
	}
	opts := harness.Options{Trials: *trials, SeedBase: *seed, Parallelism: *parallel}

	if *asJSON {
		doc := jsonReport{Trials: opts.Trials, SeedBase: opts.SeedBase}
		for _, id := range ids {
			rep, err := harness.Run(id, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			doc.Experiments = append(doc.Experiments, jsonExperiment{ID: rep.ID, Title: rep.Title, Findings: rep.Findings})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	fmt.Fprintf(out, "allforone experiment suite — %d trials per cell, seed base %d\n", *trials, *seed)
	fmt.Fprintf(out, "reproducing: Raynal & Cao, ICDCS 2019 (see EXPERIMENTS.md)\n\n")
	for _, id := range ids {
		rep, err := harness.Run(id, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := rep.Table.Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
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
// scripts — e.g. -search-protocol register, where protocol.Check holds
// every probe's history to linearizability), and a timed minority crash
// plan for the jitter strategy to move around.
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
