package adversary

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"allforone/internal/driver"
	"allforone/internal/harness"
	"allforone/internal/protocol"
	"allforone/internal/trace"
)

// Config parameterizes one adversarial search.
type Config struct {
	// Base is the scenario the search perturbs: its protocol, topology,
	// workload, and bounds are the fixed frame; seeds, profiles, and crash
	// instants are the searched axes (which ones move depends on Strategy).
	// When Base carries a Trace, every probe records into a fresh log, and
	// findings keep theirs for replay comparison.
	Base protocol.Scenario
	// Strategy mutates the incumbent into probes; nil means
	// DefaultStrategy(0).
	Strategy Strategy
	// Objective ranks probes of equal verdict; nil means Steps().
	Objective Objective
	// Budget is the total number of probes (required, > 0).
	Budget int
	// Batch is how many probes run between incumbent updates; ≤ 0 means
	// min(Budget, 64). Smaller batches follow the search gradient more
	// eagerly; larger ones parallelize better.
	Batch int
	// Parallelism sizes the worker pool probes run on (harness.SweepCollect);
	// ≤ 0 means one worker per CPU. It never affects the search result:
	// probe generation and ranking are sequential in probe order.
	Parallelism int
	// Seed pins the search's own randomness (mutation draws). Probe
	// scenarios carry their own seeds, hopped by strategies.
	Seed int64
	// KeepFindings caps how many violation/undecided counterexamples the
	// report retains (in probe order); ≤ 0 means 16. The worst probe is
	// always retained separately.
	KeepFindings int
}

// Finding is one noteworthy probe: the complete scenario that produced it
// (replayable bit-for-bit under the virtual engine), its outcome, and its
// classification.
type Finding struct {
	// Probe is the probe's index in generation order.
	Probe int
	// Scenario is the full probe description — seed, profile, crash plan.
	// Re-running it under the virtual engine reproduces Outcome exactly.
	Scenario protocol.Scenario
	// Outcome is the probe's result (nil when the run itself returned an
	// error — see Err).
	Outcome *protocol.Outcome
	// Err is the protocol.Run error for probes the protocol itself
	// rejected mid-run (a detected invariant violation).
	Err error
	// Verdict classifies the probe; Score ranks it within its verdict.
	Verdict Verdict
	Score   float64
}

// Replay re-runs the finding's scenario (with a fresh trace log when the
// scenario records one) and returns the new outcome and trace. Under the
// virtual engine the outcome must be identical to Finding.Outcome, field
// for field — the reproduction contract every emitted counterexample
// carries.
func (f *Finding) Replay() (*protocol.Outcome, *trace.Log, error) {
	sc := f.Scenario
	if sc.Trace != nil {
		sc.Trace = trace.New()
	}
	out, err := protocol.Run(sc)
	return out, sc.Trace, err
}

// Report aggregates one search.
type Report struct {
	// Probes is the number of probes executed (= Config.Budget).
	Probes int
	// Objective / Strategy name the search's moving parts.
	Objective string
	Strategy  string
	// Per-verdict probe counts. BoundedOut tracks budget-exhausted probes
	// separately — they are inconclusive, never evidence of non-decision.
	Decided    int
	Undecided  int
	BoundedOut int
	Violations int
	// Worst is the highest-ranked probe: by verdict severity first
	// (violation > undecided > decided > bounded-out), objective score
	// second, earliest probe on ties. Nil only when Budget is 0.
	Worst *Finding
	// Findings retains violation and undecided counterexamples in probe
	// order, capped at Config.KeepFindings.
	Findings []Finding
}

// ranksAbove reports whether a is a worse schedule (for the protocol) than
// b: verdict severity first, objective score second; b wins ties, keeping
// the earliest probe and making the ranking deterministic.
func ranksAbove(a, b *Finding) bool {
	if a.Verdict != b.Verdict {
		return a.Verdict > b.Verdict
	}
	return a.Score > b.Score
}

// fatal reports search-configuration errors that must abort the search:
// scenarios the registry rejects up front. Anything else a probe returns
// is a finding (the protocol detected a violation mid-run).
func fatal(err error) bool {
	return errors.Is(err, protocol.ErrBadScenario) ||
		errors.Is(err, protocol.ErrUnknownProtocol) ||
		errors.Is(err, driver.ErrBadCrashes)
}

// Search sweeps schedule space for the worst case: Budget probes, derived
// batch by batch from the incumbent (the worst probe found so far), run on
// a worker pool, classified and ranked in probe order. The returned
// report's Worst finding reproduces bit-for-bit: re-running its Scenario
// under the virtual engine yields the identical Outcome and trace.
func Search(cfg Config) (*Report, error) {
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("adversary: Budget must be positive, got %d", cfg.Budget)
	}
	if _, ok := protocol.Lookup(cfg.Base.Protocol); !ok {
		return nil, fmt.Errorf("%w %q", protocol.ErrUnknownProtocol, cfg.Base.Protocol)
	}
	strat := cfg.Strategy
	if strat == nil {
		strat = DefaultStrategy(0)
	}
	obj := cfg.Objective
	if obj == nil {
		obj = Steps()
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = 64
	}
	if batch > cfg.Budget {
		batch = cfg.Budget
	}
	keep := cfg.KeepFindings
	if keep <= 0 {
		keep = 16
	}

	rng := rand.New(rand.NewPCG(uint64(cfg.Seed), uint64(cfg.Seed)^0x9e3779b97f4a7c15))
	incumbent := cfg.Base
	rep := &Report{Objective: obj.Name(), Strategy: strat.Name()}

	for probe := 0; probe < cfg.Budget; {
		b := batch
		if rest := cfg.Budget - probe; b > rest {
			b = rest
		}
		scs := make([]protocol.Scenario, b)
		for k := range scs {
			sc, err := strat.Mutate(rng, incumbent)
			if err != nil {
				return nil, err
			}
			if cfg.Base.Trace != nil {
				sc.Trace = trace.New()
			}
			scs[k] = sc
		}
		outs, errs := harness.SweepCollect(scs, cfg.Parallelism)
		for k := range scs {
			if errs[k] != nil && fatal(errs[k]) {
				return nil, fmt.Errorf("adversary: probe %d: %w", probe+k, errs[k])
			}
			f := Finding{
				Probe:    probe + k,
				Scenario: scs[k],
				Outcome:  outs[k],
				Err:      errs[k],
				Verdict:  Classify(outs[k], errs[k]),
			}
			if outs[k] != nil {
				f.Score = obj.Score(outs[k])
				// Objective-specific safety oracles (e.g. linearizability)
				// upgrade probes the generic classifier cannot condemn.
				if chk, ok := obj.(ViolationChecker); ok && f.Verdict != VerdictViolation {
					if verr := chk.CheckViolation(outs[k]); verr != nil {
						f.Verdict = VerdictViolation
						f.Err = verr
					}
				}
			}
			switch f.Verdict {
			case VerdictDecided:
				rep.Decided++
			case VerdictUndecided:
				rep.Undecided++
			case VerdictBoundedOut:
				rep.BoundedOut++
			case VerdictViolation:
				rep.Violations++
			}
			if f.Verdict >= VerdictUndecided && len(rep.Findings) < keep {
				rep.Findings = append(rep.Findings, f)
			}
			if rep.Worst == nil || ranksAbove(&f, rep.Worst) {
				worst := f
				rep.Worst = &worst
			}
		}
		probe += b
		// Local search: the next batch perturbs the worst schedule so far.
		incumbent = rep.Worst.Scenario
	}
	rep.Probes = cfg.Budget
	return rep, nil
}
