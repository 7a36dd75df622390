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
// by disabling one at a time (DESIGN.md §8):
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
	sched, err := failures.CrashAllExcept(part.N(), crashAt, 2)
	if err != nil {
		return nil, err
	}
	for _, variant := range []a1Variant{
		{name: "full algorithm"},
		{"closure OFF", "liveness", func(v *core.Variant) { v.AblateClosure = true }},
	} {
		outs, _, err := variant.trials(opts, func(trial int) protocol.Scenario {
			return protocol.Scenario{
				Topology: protocol.Topology{Partition: part},
				Workload: protocol.Workload{Binary: proposalsFor("unanimous1", part.N(), nil)},
				Faults:   sched,
				Seed:     opts.SeedBase + int64(trial)*101,
				Bounds:   protocol.Bounds{MaxRounds: 1000},
			}
		})
		if err != nil {
			return nil, err
		}
		decided := 0
		for _, out := range outs {
			if _, _, ok := out.Decided(); ok {
				decided++
			}
		}
		tb.AddRowf(variant.name, "majority crash (6/7)", pct(decided, opts.Trials), 0.0)
		rep.Findings[variant.name+"/majority_crash_decided_pct"] = pct(decided, opts.Trials)
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
		{"cluster consensus OFF", "cluster-uniformity", func(v *core.Variant) { v.AblateClusterConsensus = true }},
	} {
		outs, broke, err := variant.trials(opts, func(trial int) protocol.Scenario {
			return protocol.Scenario{
				Topology: protocol.Topology{Partition: leftPart},
				Workload: protocol.Workload{Binary: split},
				Seed:     opts.SeedBase + int64(trial)*211,
				Bounds:   protocol.Bounds{MaxRounds: 200},
				Trace:    trace.New(),
			}
		})
		if err != nil {
			return nil, err
		}
		violations, decided := 0, 0
		for trial, out := range outs {
			if broke[trial] {
				violations++
			}
			if out != nil && out.AllLiveDecided() {
				decided++
			}
		}
		tb.AddRowf(variant.name, "split inside cluster", pct(decided, opts.Trials), pct(violations, opts.Trials))
		rep.Findings[variant.name+"/uniformity_violations_pct"] = pct(violations, opts.Trials)
	}
	tb.AddNote("%d trials per row; violations are detected over full event traces", opts.Trials)
	rep.Table = tb
	return rep, nil
}

// a1Variant is one row of A1: the full local-coin algorithm, or an ablation
// that gives up one property protocol.Check judges.
type a1Variant struct {
	name    string
	givesUp string              // the one property the variant may break; "" for the full algorithm
	ablate  func(*core.Variant) // ablates a copy of core.Hybrid; nil for the full algorithm
}

// trials builds one scenario per trial, runs each on the harness pool (run,
// below) and returns the outcomes and broken-property flags in trial order.
// A trial whose cluster consensus was ablated may collapse its rec-set
// accounting (core.ErrInvariantBroken): it counts as broken, with a nil
// Outcome.
func (v a1Variant) trials(opts Options, build func(trial int) protocol.Scenario) ([]*protocol.Outcome, []bool, error) {
	scs := trialScenarios(opts.Trials, build)
	outs, broke := make([]*protocol.Outcome, len(scs)), make([]bool, len(scs))
	err := forEachParallel(opts.Parallelism, len(scs), func(trial int) error {
		out, b, err := v.run(scs[trial])
		if errors.Is(err, core.ErrInvariantBroken) && v.givesUp == "cluster-uniformity" {
			broke[trial] = true
			return nil
		}
		if err != nil {
			return fmt.Errorf("harness: A1 trial %d: %w", trial, err)
		}
		outs[trial], broke[trial] = out, b
		return nil
	})
	return outs, broke, err
}

// run executes one local-coin trial of sc on core.Hybrid, altered by the
// variant's ablation, and judges it with protocol.Check. It reports whether
// the trial broke the property the variant gives up, and fails on any
// other.
func (v a1Variant) run(sc protocol.Scenario) (*protocol.Outcome, bool, error) {
	sc.Protocol, sc.Algorithm = core.ProtocolName, core.AlgoLocalCoin
	hybrid := core.Hybrid
	if v.ablate != nil {
		v.ablate(&hybrid)
	}
	res, err := core.RunVariant(sc, hybrid)
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
