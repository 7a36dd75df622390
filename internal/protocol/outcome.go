package protocol

import (
	"fmt"

	"allforone/internal/metrics"
	"allforone/internal/sim"
)

// ProcOutcome is one process's view of a scenario run, in a vocabulary
// uniform across protocols: the shared Status, the decided value rendered
// as a string (binary decisions as "0"/"1", multivalued as the proposal,
// replicated logs as the joined slot sequence), and the round the
// execution ended at (0 where rounds are meaningless).
type ProcOutcome struct {
	Status   sim.Status
	Decision string
	Round    int
}

// Outcome is the uniform result of protocol.Run. Raw keeps the protocol's
// native result value (*sim.Result, *multivalued.Result, *smr.Result, or
// *register.Result) for callers needing protocol-specific detail.
type Outcome struct {
	// Protocol is the registry name of the protocol that ran.
	Protocol string
	// Procs holds per-process outcomes, indexed by process id.
	Procs []ProcOutcome
	// Metrics is the run's cost snapshot.
	Metrics metrics.Snapshot
	sim.Engine
	// Raw is the protocol's native result value.
	Raw any
}

// LogSep joins replicated-log slots into one Decision string; it cannot
// appear in commands coming from sane workloads (ASCII unit separator).
// The smr adapter joins with it and renderers split on it.
const LogSep = "\x1f"

// BinaryOutcome folds a sim.Result (the shape shared by every binary
// consensus runner) into the uniform Outcome. Protocol adapters call it.
func BinaryOutcome(name string, res *sim.Result) *Outcome {
	out := &Outcome{
		Protocol: name,
		Procs:    make([]ProcOutcome, len(res.Procs)),
		Metrics:  res.Metrics,
		Engine:   res.Engine,
		Raw:      res,
	}
	for i, pr := range res.Procs {
		po := ProcOutcome{Status: pr.Status, Round: pr.Round}
		if pr.Status == sim.StatusDecided {
			po.Decision = pr.Decision.String()
		}
		out.Procs[i] = po
	}
	return out
}

// Decided returns the decided value and how many processes decided it.
func (o *Outcome) Decided() (val string, count int, ok bool) {
	for _, pr := range o.Procs {
		if pr.Status == sim.StatusDecided {
			count++
			val = pr.Decision
		}
	}
	return val, count, count > 0
}

// AllLiveDecided reports whether every non-crashed process decided.
func (o *Outcome) AllLiveDecided() bool {
	for _, pr := range o.Procs {
		if pr.Status != sim.StatusDecided && pr.Status != sim.StatusCrashed {
			return false
		}
	}
	return true
}

// CountStatus returns how many processes ended with the given status.
func (o *Outcome) CountStatus(st sim.Status) int {
	n := 0
	for _, pr := range o.Procs {
		if pr.Status == st {
			n++
		}
	}
	return n
}

// MaxDecisionRound returns the largest round at which a process decided
// (0 if none did).
func (o *Outcome) MaxDecisionRound() int {
	max := 0
	for _, pr := range o.Procs {
		if pr.Status == sim.StatusDecided && pr.Round > max {
			max = pr.Round
		}
	}
	return max
}

// Undecided returns how many processes ended neither decided nor crashed —
// the processes a liveness objective counts against the schedule.
func (o *Outcome) Undecided() int {
	n := 0
	for _, pr := range o.Procs {
		if pr.Status != sim.StatusDecided && pr.Status != sim.StatusCrashed {
			n++
		}
	}
	return n
}

// CheckAgreement verifies that no two decided processes decided
// differently — the consensus agreement property, uniform across
// protocols because decisions are rendered strings.
func (o *Outcome) CheckAgreement() error {
	first, have := "", false
	for i, pr := range o.Procs {
		if pr.Status != sim.StatusDecided {
			continue
		}
		if !have {
			first, have = pr.Decision, true
			continue
		}
		if pr.Decision != first {
			return fmt.Errorf("protocol: agreement violated: process %d decided %q, earlier process decided %q", i, pr.Decision, first)
		}
	}
	return nil
}

// CheckValidity verifies that every decision is one of the allowed
// (rendered) proposals.
func (o *Outcome) CheckValidity(allowed []string) error {
	ok := make(map[string]bool, len(allowed))
	for _, v := range allowed {
		ok[v] = true
	}
	for i, pr := range o.Procs {
		if pr.Status == sim.StatusDecided && !ok[pr.Decision] {
			return fmt.Errorf("protocol: validity violated: process %d decided %q, not a proposal", i, pr.Decision)
		}
	}
	return nil
}
