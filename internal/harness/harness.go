// Package harness runs the repository's experiment suite: for every figure
// and quantitative claim of the paper (there are no result tables — it is a
// theory paper, see DESIGN.md §2), a harness function executes seeded
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
package harness

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"allforone/internal/core"
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

// renderValues renders binary proposals as the Outcome decision strings.
func renderValues(props []model.Value) []string {
	out := make([]string, len(props))
	for i, v := range props {
		out[i] = v.String()
	}
	return out
}

// runHybridTrials runs `trials` seeded executions of the hybrid algorithm
// through the Scenario API and aggregates their costs. The scFn hook lets
// callers adjust the scenario per trial (e.g. attach crash schedules or a
// network profile).
//
// Scenarios are generated sequentially (so the shared proposal RNG stays
// deterministic) and then executed on the worker pool; aggregation folds
// outcomes in trial order, so the summary is identical whatever the
// parallelism.
func runHybridTrials(part *model.Partition, algo core.Algorithm, mode string, opts Options,
	scFn func(trial int, sc *protocol.Scenario)) (*trialSummary, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewPCG(uint64(opts.SeedBase)+0x9e37, 0x79b9))
	scs := make([]protocol.Scenario, opts.Trials)
	for trial := range scs {
		scs[trial] = protocol.Scenario{
			Protocol:  core.ProtocolName,
			Topology:  protocol.Topology{Partition: part},
			Workload:  protocol.Workload{Binary: proposalsFor(mode, part.N(), rng)},
			Algorithm: algoName(algo),
			Seed:      opts.SeedBase + int64(trial)*1_000_003,
			Bounds:    protocol.Bounds{MaxRounds: 10_000},
		}
		if scFn != nil {
			scFn(trial, &scs[trial])
		}
	}
	outs, err := Sweep(scs, opts.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	sum := &trialSummary{trials: opts.Trials}
	for trial, out := range outs {
		if err := out.CheckAgreement(); err != nil {
			return nil, fmt.Errorf("harness: trial %d: %w", trial, err)
		}
		if err := out.CheckValidity(renderValues(scs[trial].Workload.Binary)); err != nil {
			return nil, fmt.Errorf("harness: trial %d: %w", trial, err)
		}
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
