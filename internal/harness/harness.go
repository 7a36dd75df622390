// Package harness runs the repository's experiment suite: for every figure
// and quantitative claim of the paper (there are no result tables — it is a
// theory paper, see DESIGN.md §1), a harness function executes seeded
// multi-trial simulations and renders the measurement as a text table, the
// way the paper's evaluation section would report it.
//
// Experiments:
//
//	E1 — Figure 1 decompositions: cost profile of both n=7, m=3 layouts.
//	E2 — majority crash: one survivor in a majority cluster decides
//	     (hybrid) while pure message passing blocks.
//	E3 — common-coin round distribution: expected ≈ 2 rounds (§IV).
//	E4 — rounds vs cluster count at fixed n (m=n degenerates to Ben-Or).
//	E5 — consensus-object cost: hybrid (m per phase, 1 per process) vs
//	     m&m (n per phase, α_i+1 per process) (§III-C).
//	E6 — message complexity: Θ(n²) messages per round.
//	E7 — extreme configurations: m=1 vs native shared memory, m=n vs
//	     native Ben-Or (§II-A).
//	E8 — indulgence: no decision, and no unsafe decision, when the
//	     liveness condition fails (§III-B).
//	E9 — the extension stack (multivalued, register, log) under E2's crash.
//	E10, E10D — sparse overlays: msgs/round vs n at fixed degree d, and
//	     vs d at fixed n (diameter and κ against cost).
//	A1 — ablations: what closure and cluster consensus buy.
//
// Every experiment builds its trial Scenarios up front, in trial order, and
// runs them on one worker pool: Sweep, which holds each Outcome to
// protocol.Check and fails on the first violation, or SweepCollect plus
// Check where a row counts violations (E8). Outcomes are folded in trial
// order, so findings and tables do not depend on Options.Parallelism. A1's
// ablations, which no Scenario can express, run core.Run per trial on the
// same pool and answer to Check as well.
package harness

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"allforone/internal/core"
	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/protocol"
	"allforone/internal/sim"
	"allforone/internal/stats"
)

// Options tunes an experiment run.
type Options struct {
	// Trials is the number of seeded runs per table cell (default 50).
	Trials int
	// SeedBase offsets every trial's seed, for independent repetitions.
	SeedBase int64
	// Parallelism caps the worker pool that executes independent trials
	// concurrently; 0 (or less) means one worker per available CPU. Runs
	// are deterministic, so aggregation (in trial order) is independent of
	// the pool size.
	Parallelism int
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = 50
	}
	return o
}

// Report is one experiment's outcome: a rendered table plus keyed scalar
// findings that tests and benchmarks assert against without parsing text.
type Report struct {
	ID       string
	Title    string
	Table    *stats.Table
	Findings map[string]float64
}

// ErrNoData is returned when an experiment produced no usable trials.
var ErrNoData = errors.New("harness: no data")

// trialSummary aggregates per-trial measurements of repeated runs of one
// configuration.
type trialSummary struct {
	rounds    []float64 // max decision round per trial (decided trials only)
	msgs      []float64 // messages sent per trial
	consInv   []float64 // consensus-object invocations per trial
	coinFlips []float64
	decided   int // trials where every live process decided
	blocked   int // trials with at least one blocked process
	trials    int
}

// proposalsFor draws a proposal vector: mode "unanimous1", "unanimous0",
// "split" (alternating), or "random" (seeded).
func proposalsFor(mode string, n int, rng *rand.Rand) []model.Value {
	out := make([]model.Value, n)
	for i := range out {
		switch mode {
		case "unanimous1":
			out[i] = model.One
		case "unanimous0":
			out[i] = model.Zero
		case "split":
			out[i] = model.Value(int8(i % 2))
		default:
			out[i] = model.BitToValue(rng.Uint64())
		}
	}
	return out
}

// algoName renders a core.Algorithm as its Scenario registry name.
func algoName(algo core.Algorithm) string {
	if algo == core.LocalCoin {
		return core.AlgoLocalCoin
	}
	return core.AlgoCommonCoin
}

// trialScenarios builds one scenario per trial, in trial order, so an RNG
// that build draws from advances exactly as in a serial loop. The caller
// runs them on the pool (Sweep, or SweepCollect plus Check) and folds the
// outcomes in the same order, so every result is independent of the pool
// size.
func trialScenarios(trials int, build func(trial int) protocol.Scenario) []protocol.Scenario {
	scs := make([]protocol.Scenario, trials)
	for trial := range scs {
		scs[trial] = build(trial)
	}
	return scs
}

// pct renders k of trials as a percentage.
func pct(k, trials int) float64 { return 100 * float64(k) / float64(trials) }

// runHybridTrials runs `trials` seeded executions of the hybrid algorithm
// through Sweep under the crash pattern faults (nil for none) and aggregates
// their costs.
func runHybridTrials(part *model.Partition, algo core.Algorithm, mode string, opts Options,
	faults *failures.Schedule) (*trialSummary, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewPCG(uint64(opts.SeedBase)+0x9e37, 0x79b9))
	outs, err := Sweep(trialScenarios(opts.Trials, func(trial int) protocol.Scenario {
		return protocol.Scenario{
			Protocol:  core.ProtocolName,
			Topology:  protocol.Topology{Partition: part},
			Workload:  protocol.Workload{Binary: proposalsFor(mode, part.N(), rng)},
			Algorithm: algoName(algo),
			Seed:      opts.SeedBase + int64(trial)*1_000_003,
			Faults:    faults,
			Bounds:    protocol.Bounds{MaxRounds: 10_000},
		}
	}), opts.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	sum := &trialSummary{trials: opts.Trials}
	for _, out := range outs {
		sum.observe(out)
	}
	return sum, nil
}

// observe folds one run into the summary.
func (s *trialSummary) observe(out *protocol.Outcome) {
	if out.AllLiveDecided() {
		s.decided++
		s.rounds = append(s.rounds, float64(out.MaxDecisionRound()))
	}
	if out.CountStatus(sim.StatusBlocked) > 0 {
		s.blocked++
	}
	s.msgs = append(s.msgs, float64(out.Metrics.MsgsSent))
	s.consInv = append(s.consInv, float64(out.Metrics.ConsInvocations))
	s.coinFlips = append(s.coinFlips, float64(out.Metrics.CoinFlips))
}

// meanOr returns the mean of xs or fallback for empty samples.
func meanOr(xs []float64, fallback float64) float64 {
	m, err := stats.Mean(xs)
	if err != nil {
		return fallback
	}
	return m
}

// p95Or returns the 95th percentile of xs or fallback for empty samples.
func p95Or(xs []float64, fallback float64) float64 {
	v, err := stats.Percentile(xs, 95)
	if err != nil {
		return fallback
	}
	return v
}
