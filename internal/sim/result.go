// Package sim defines the execution-outcome vocabulary shared by every
// consensus implementation in this repository: the hybrid algorithms
// (internal/core), the pure message-passing baselines (internal/benor,
// internal/mpcoin), the shared-memory baseline (internal/shconsensus) and
// the m&m comparator (internal/mm). A common Result shape lets the
// experiment harness treat all of them uniformly.
package sim

import (
	"fmt"
	"time"

	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/vclock"
)

// DefaultMaxSteps bounds virtual-engine runs that never converge: a run
// processing this many discrete events without terminating is aborted
// deterministically (undecided processes end as StatusBlocked). It is the
// floor of the topology-aware default, DefaultMaxStepsFor.
const DefaultMaxSteps = 8 << 20

// DefaultMaxStepsFor is the default step budget of an n-process
// virtual-engine run. All-to-all exchanges cost Θ(n²) events per round, so
// a flat constant that is generous at n=64 silently truncates legitimate
// n=8192 runs; 24·n² covers the protocols in this repository with an
// order-of-magnitude margin (the full-coin hybrid run measures ~3.1·n²
// events at n=1024), while DefaultMaxSteps stays the floor so small-n runs
// keep the historical bound. Non-positive n (protocols that never report a
// topology) gets the floor.
func DefaultMaxStepsFor(n int) int64 {
	q := 24 * int64(n) * int64(n)
	if n <= 0 || q < DefaultMaxSteps {
		return DefaultMaxSteps
	}
	return q
}

// StepComplexity is a protocol's event-count shape, declared through the
// registry (protocol.Info.SubQuadratic) and threaded to the engine driver
// so the default step budget matches the protocol family: the 24·n²
// default that keeps an all-to-all exchange honest is absurd for a
// sparse-overlay protocol at n=100k (240 billion steps), where the real
// event count is O(n·d·rounds).
type StepComplexity int

const (
	// StepsQuadratic (the zero value): all-to-all message exchange,
	// Θ(n²) events per round — the classic protocols. Default budget
	// 24·n² (DefaultMaxStepsFor).
	StepsQuadratic StepComplexity = iota
	// StepsLinear: sparse-overlay protocols, O(n·d·rounds) events.
	// Default budget 8192·n — linear in n with a per-process allowance
	// generous for any d·rounds product in this repository, floored at
	// DefaultMaxSteps so small-n runs keep the historical bound.
	StepsLinear
)

// DefaultMaxStepsHint is DefaultMaxStepsFor with the protocol's declared
// complexity: quadratic keeps the 24·n² default, linear gets 8192·n.
func DefaultMaxStepsHint(n int, c StepComplexity) int64 {
	if c == StepsLinear {
		l := 8192 * int64(n)
		if n <= 0 || l < DefaultMaxSteps {
			return DefaultMaxSteps
		}
		return l
	}
	return DefaultMaxStepsFor(n)
}

// Status classifies how a process's propose() invocation ended.
type Status int8

// Possible process outcomes.
const (
	// StatusDecided: the process returned a decision (consensus output).
	StatusDecided Status = iota + 1
	// StatusCrashed: the failure injector halted the process.
	StatusCrashed
	// StatusBlocked: the runner aborted the process (timeout or round cap);
	// in the model the process would still be waiting. Blocked processes
	// have no decision — indulgence demands they never output a bad one.
	StatusBlocked
	// StatusFailed: an internal invariant was violated — a bug, never an
	// acceptable outcome.
	StatusFailed
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusDecided:
		return "decided"
	case StatusCrashed:
		return "crashed"
	case StatusBlocked:
		return "blocked"
	case StatusFailed:
		return "failed"
	}
	return "unknown"
}

// ProcResult is one process's view of an execution.
type ProcResult struct {
	Status   Status
	Decision model.Value // meaningful iff Status == StatusDecided
	Round    int         // round at which the execution ended
}

// Result aggregates a run of any consensus implementation.
type Result struct {
	// Procs holds per-process outcomes, indexed by process id.
	Procs []ProcResult
	// Metrics is the cost snapshot of the run.
	Metrics metrics.Snapshot
	// ConsInvocations / ConsAllocations hold per-memory consensus-object
	// counts (per cluster in the hybrid model, per process-centered memory
	// in the m&m model; nil for pure message-passing baselines).
	ConsInvocations []int64
	ConsAllocations []int64
	// Elapsed is the duration of the run on the virtual clock — always
	// equal to VirtualTime, so a Result is bit-reproducible from its Config.
	Elapsed time.Duration
	// VirtualTime is the virtual-clock duration of the run.
	VirtualTime time.Duration
	// Steps is the number of discrete events the engine processed.
	Steps int64
	// Quiesced reports that the virtual engine aborted the run because the
	// execution could never take another step (undecided processes waiting
	// with no pending events) — the deterministic "blocked forever"
	// verdict, e.g. when the liveness condition does not hold.
	Quiesced bool
	// DeadlineExceeded / StepsExceeded report that the virtual engine cut
	// the run short at the MaxVirtualTime / MaxSteps bound. Unlike
	// Quiesced, a bounded-out run is INCONCLUSIVE about liveness: the
	// execution might have decided given more budget. Adversarial searches
	// and experiment harnesses must classify these runs separately from
	// genuine non-decision.
	DeadlineExceeded bool
	StepsExceeded    bool
	// Sched counts the virtual scheduler's internal work — the timer-wheel
	// observability surface (events scheduled, cascades, deepest bucket).
	// Deterministic: same Config, same counts.
	Sched vclock.SchedulerStats
}

// BoundedOut reports whether the run was cut short by an artificial bound
// (MaxVirtualTime or MaxSteps) rather than deciding or quiescing on its
// own — the inconclusive verdict, distinct from blocked-forever.
func (r *Result) BoundedOut() bool { return r.DeadlineExceeded || r.StepsExceeded }

// Decided returns the processes that decided and their (necessarily equal)
// value. ok is false when no process decided.
func (r *Result) Decided() (val model.Value, count int, ok bool) {
	val = model.Bot
	for _, pr := range r.Procs {
		if pr.Status == StatusDecided {
			count++
			val = pr.Decision
		}
	}
	return val, count, count > 0
}

// AllLiveDecided reports whether every non-crashed process decided —
// the termination property under the relevant liveness condition.
func (r *Result) AllLiveDecided() bool {
	for _, pr := range r.Procs {
		if pr.Status != StatusDecided && pr.Status != StatusCrashed {
			return false
		}
	}
	return true
}

// CheckAgreement verifies no two decided processes decided differently.
func (r *Result) CheckAgreement() error {
	val, have := model.Bot, false
	for i, pr := range r.Procs {
		if pr.Status != StatusDecided {
			continue
		}
		if !have {
			val, have = pr.Decision, true
			continue
		}
		if pr.Decision != val {
			return fmt.Errorf("sim: agreement violated: %v decided %v, earlier process decided %v",
				model.ProcID(i), pr.Decision, val)
		}
	}
	return nil
}

// CheckValidity verifies every decision was somebody's proposal.
func (r *Result) CheckValidity(proposals []model.Value) error {
	for i, pr := range r.Procs {
		if pr.Status != StatusDecided {
			continue
		}
		found := false
		for _, prop := range proposals {
			if prop == pr.Decision {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("sim: validity violated: %v decided %v, which no process proposed",
				model.ProcID(i), pr.Decision)
		}
	}
	return nil
}

// MaxDecisionRound returns the highest round at which any process decided
// (0 when no process decided).
func (r *Result) MaxDecisionRound() int {
	max := 0
	for _, pr := range r.Procs {
		if pr.Status == StatusDecided && pr.Round > max {
			max = pr.Round
		}
	}
	return max
}

// DecisionRounds returns the decision round of every decided process.
func (r *Result) DecisionRounds() []int {
	var out []int
	for _, pr := range r.Procs {
		if pr.Status == StatusDecided {
			out = append(out, pr.Round)
		}
	}
	return out
}

// CountStatus returns how many processes ended with the given status.
func (r *Result) CountStatus(s Status) int {
	c := 0
	for _, pr := range r.Procs {
		if pr.Status == s {
			c++
		}
	}
	return c
}
