package harness

import (
	"errors"
	"fmt"

	"allforone/internal/core"
	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/protocol"
	"allforone/internal/stats"
	"allforone/internal/trace"
)

// A1Ablations quantifies what each design ingredient of Algorithm 2 buys,
// by disabling one at a time (DESIGN.md §6):
//
//   - cluster closure OFF → the one-for-all property disappears: the
//     majority-crash pattern of E2 blocks instead of deciding;
//   - intra-cluster consensus OFF → the closure's premise (cluster
//     uniformity) is violated, observable in traces and occasionally as a
//     collapsed rec-set invariant.
//
// Every trial is a Scenario judged by protocol.Check: a full-algorithm trial
// must break nothing, and an ablated one at most the property its ablation
// gives up (liveness, cluster uniformity) — anything else is an error.
func A1Ablations(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{
		ID:       "A1",
		Title:    "ablations: what closure and cluster consensus buy",
		Findings: map[string]float64{},
	}
	tb := stats.NewTable("A1: "+rep.Title,
		"variant", "scenario", "decided%", "uniformity violations%")

	// Scenario 1: the E2 majority-crash pattern, full vs closure-ablated.
	part := model.Fig1Right()
	crashAt := failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}
	for _, variant := range []a1Variant{
		{name: "full algorithm"},
		{"closure OFF", "liveness", func(cfg *core.Config) { cfg.AblateClosure = true }},
	} {
		decided := 0
		for trial := 0; trial < opts.Trials; trial++ {
			sched, err := failures.CrashAllExcept(part.N(), crashAt, 2)
			if err != nil {
				return nil, err
			}
			out, _, err := variant.run(protocol.Scenario{
				Topology: protocol.Topology{Partition: part},
				Workload: protocol.Workload{Binary: proposalsFor("unanimous1", part.N(), nil)},
				Faults:   sched,
				Seed:     opts.SeedBase + int64(trial)*101,
				Bounds:   protocol.Bounds{MaxRounds: 1000},
			})
			if err != nil {
				return nil, fmt.Errorf("harness: A1 trial %d: %w", trial, err)
			}
			if _, _, ok := out.Decided(); ok {
				decided++
			}
		}
		decidedPct := 100 * float64(decided) / float64(opts.Trials)
		tb.AddRowf(variant.name, "majority crash (6/7)", decidedPct, 0.0)
		rep.Findings[variant.name+"/majority_crash_decided_pct"] = decidedPct
	}

	// Scenario 2: split proposals inside a cluster, full vs
	// cluster-consensus-ablated; count uniformity violations.
	split := []model.Value{
		model.Zero, model.One, model.Zero, // split inside P[1] of Fig1Left
		model.One, model.One,
		model.Zero, model.Zero,
	}
	leftPart := model.Fig1Left()
	for _, variant := range []a1Variant{
		{name: "full algorithm"},
		{"cluster consensus OFF", "cluster-uniformity", func(cfg *core.Config) { cfg.AblateClusterConsensus = true }},
	} {
		violations := 0
		decided := 0
		for trial := 0; trial < opts.Trials; trial++ {
			out, broke, err := variant.run(protocol.Scenario{
				Topology: protocol.Topology{Partition: leftPart},
				Workload: protocol.Workload{Binary: split},
				Seed:     opts.SeedBase + int64(trial)*211,
				Bounds:   protocol.Bounds{MaxRounds: 200},
				Trace:    trace.New(),
			})
			if errors.Is(err, core.ErrInvariantBroken) && variant.ablate != nil {
				violations++ // the corrupted accounting collapsed
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("harness: A1 trial %d: %w", trial, err)
			}
			if broke {
				violations++
			}
			if out.AllLiveDecided() {
				decided++
			}
		}
		violPct := 100 * float64(violations) / float64(opts.Trials)
		decidedPct := 100 * float64(decided) / float64(opts.Trials)
		tb.AddRowf(variant.name, "split inside cluster", decidedPct, violPct)
		rep.Findings[variant.name+"/uniformity_violations_pct"] = violPct
	}
	tb.AddNote("%d trials per row; violations are detected over full event traces", opts.Trials)
	rep.Table = tb
	return rep, nil
}

// a1Variant is one row of A1: the full local-coin algorithm, or an ablation
// that gives up one property protocol.Check judges.
type a1Variant struct {
	name    string
	givesUp string             // the one property the variant may break; "" for the full algorithm
	ablate  func(*core.Config) // nil for the full algorithm
}

// run executes one local-coin trial of sc on the hybrid protocol's Config,
// compiled through Scenario.Setup and altered by the variant's ablation, and
// judges it with protocol.Check. It reports whether the trial broke the
// property the variant gives up, and fails on any other.
func (v a1Variant) run(sc protocol.Scenario) (*protocol.Outcome, bool, error) {
	sc.Protocol, sc.Algorithm = core.ProtocolName, core.AlgoLocalCoin
	setup, err := sc.Setup()
	if err != nil {
		return nil, false, err
	}
	cfg := core.Config{
		Setup:     setup,
		Partition: sc.Topology.Partition,
		Proposals: sc.Workload.Binary,
		Algorithm: core.LocalCoin,
		MaxRounds: sc.Bounds.MaxRounds,
		Trace:     sc.Trace,
	}
	if v.ablate != nil {
		v.ablate(&cfg)
	}
	res, err := core.Run(cfg)
	if err != nil {
		return nil, false, err
	}
	out := protocol.BinaryOutcome(core.ProtocolName, res)
	broke := false
	for _, vi := range protocol.Check(sc, out) {
		if vi.Property != v.givesUp {
			return nil, false, fmt.Errorf("%s: %w", v.name, vi)
		}
		broke = true
	}
	return out, broke, nil
}
