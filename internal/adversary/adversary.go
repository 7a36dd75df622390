// Package adversary turns the deterministic virtual-time engine from a
// replayer into a falsifier: it searches the space of schedules — message
// delivery orders (per-link skew matrices), crash instants, and seeds —
// for the worst case a Scenario's protocol can be driven into.
//
// The search is a budgeted local search with random restarts: a mutation
// Strategy perturbs the incumbent scenario (redraw skew-matrix entries,
// jitter timed crash instants, hop seeds), a batch of probe scenarios runs
// on harness.SweepCollect's worker pool, and an Objective scores each
// Outcome (rounds-to-decide, scheduler steps, virtual time). Probes are
// classified by Verdict:
//
//   - VerdictViolation — the run returned an error or broke a property of
//     protocol.Check (agreement, validity, a liveness condition that held,
//     linearizability, …): an outright bug.
//   - VerdictUndecided — the run ended deterministically blocked with live
//     undecided processes where no liveness condition promised otherwise.
//   - VerdictDecided — every live process finished; the objective ranks
//     how expensive the schedule made it.
//   - VerdictBoundedOut — the run was cut short at a MaxSteps or
//     MaxVirtualTime budget: INCONCLUSIVE, never conflated with genuine
//     non-decision.
//
// Every probe is a complete, self-contained Scenario (seed + profile +
// crash plan), so any finding replays bit-for-bit under the virtual
// engine: Finding.Replay re-runs it and must reproduce the identical
// Outcome and trace. Because probes are generated sequentially from one
// seeded RNG and evaluated in probe order, the whole search is itself a
// pure function of its Config, whatever the worker-pool parallelism.
package adversary

import (
	"fmt"

	"allforone/internal/protocol"
)

// Verdict classifies one probe's outcome. Higher values are worse for the
// protocol; the search ranks probes by (Verdict, Objective score).
type Verdict int

const (
	// VerdictBoundedOut: the run hit a MaxSteps/MaxVirtualTime budget —
	// inconclusive, ranked below every conclusive verdict.
	VerdictBoundedOut Verdict = iota
	// VerdictDecided: every live process decided (completed its workload).
	VerdictDecided
	// VerdictUndecided: the run ended blocked (quiesced under the virtual
	// engine) with live undecided processes.
	VerdictUndecided
	// VerdictViolation: the run broke a property protocol.Check checks.
	VerdictViolation
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictBoundedOut:
		return "bounded-out"
	case VerdictDecided:
		return "decided"
	case VerdictUndecided:
		return "undecided"
	case VerdictViolation:
		return "violation"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Classify derives a probe's verdict from its run result, and for a
// violation its cause. err is the protocol.Run error, if any: a run that
// errs or that protocol.Check condemns is a violation, not a probe failure.
func Classify(sc protocol.Scenario, out *protocol.Outcome, err error) (Verdict, error) {
	if err != nil {
		return VerdictViolation, err
	}
	if vs := protocol.Check(sc, out); vs != nil {
		return VerdictViolation, vs[0]
	}
	if out.BoundedOut() {
		return VerdictBoundedOut, nil
	}
	if out.Undecided() == 0 {
		return VerdictDecided, nil
	}
	return VerdictUndecided, nil
}

// Objective scores one probe's Outcome; higher is worse for the protocol.
// The score only ranks probes of equal Verdict — a violation always
// outranks the most expensive decided run.
type Objective interface {
	// Name names the objective for reports.
	Name() string
	// Score evaluates the outcome; higher means worse.
	Score(out *protocol.Outcome) float64
}

type objectiveFunc struct {
	name string
	fn   func(out *protocol.Outcome) float64
}

func (o objectiveFunc) Name() string                        { return o.name }
func (o objectiveFunc) Score(out *protocol.Outcome) float64 { return o.fn(out) }

// NewObjective builds an Objective from a name and a scoring function.
func NewObjective(name string, fn func(out *protocol.Outcome) float64) Objective {
	return objectiveFunc{name: name, fn: fn}
}

// Rounds maximizes the latest decision round — the paper's own cost
// measure for consensus executions.
func Rounds() Objective {
	return NewObjective("rounds", func(out *protocol.Outcome) float64 {
		return float64(out.MaxDecisionRound())
	})
}

// Steps maximizes the number of discrete events the virtual engine
// processed — the finest-grained schedule cost, counting every message
// delivery and timer.
func Steps() Objective {
	return NewObjective("steps", func(out *protocol.Outcome) float64 {
		return float64(out.Steps)
	})
}

// VirtualTime maximizes the virtual clock at the end of the run — the
// latency the schedule inflicted.
func VirtualTime() Objective {
	return NewObjective("vtime", func(out *protocol.Outcome) float64 {
		return float64(out.VirtualTime)
	})
}

// ParseObjective resolves an objective name as accepted by the CLIs:
// rounds, steps, or vtime.
func ParseObjective(name string) (Objective, error) {
	switch name {
	case "rounds":
		return Rounds(), nil
	case "steps", "":
		return Steps(), nil
	case "vtime", "virtual-time":
		return VirtualTime(), nil
	}
	return nil, fmt.Errorf("adversary: unknown objective %q (want rounds, steps, or vtime)", name)
}
