// Package sim defines the run vocabulary shared by every consensus
// implementation in this repository: the hybrid algorithms (internal/core),
// the pure message-passing baselines (internal/benor, internal/mpcoin), the
// shared-memory baseline (internal/shconsensus), the m&m comparator
// (internal/mm) and the extension and sparse-overlay protocols. A run's
// shared inputs are one Setup, its engine verdict one Engine, and a common
// Result shape lets the experiment harness treat all of them uniformly.
package sim

import (
	"time"

	"allforone/internal/failures"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/vclock"
)

// DefaultMaxSteps bounds virtual-engine runs that never converge: a run
// processing this many discrete events without terminating is aborted
// deterministically (undecided processes end as StatusBlocked). It is the
// floor of the topology-aware default, DefaultMaxStepsHint.
const DefaultMaxSteps = 8 << 20

// StepComplexity is a protocol's event-count shape, declared by its adapter
// in the engine driver's Config (driver.Config.Complexity) so the default
// step budget matches the protocol family: the 24·n² default that keeps an
// all-to-all exchange honest is absurd for a sparse-overlay protocol at
// n=100k (240 billion steps), where the real event count is O(n·d·rounds).
type StepComplexity int

const (
	// StepsQuadratic (the zero value): all-to-all message exchange,
	// Θ(n²) events per round — the classic protocols. Default budget
	// 24·n².
	StepsQuadratic StepComplexity = iota
	// StepsLinear: sparse-overlay protocols, O(n·d·rounds) events.
	// Default budget 8192·n — linear in n with a per-process allowance
	// generous for any d·rounds product in this repository, floored at
	// DefaultMaxSteps so small-n runs keep the historical bound.
	StepsLinear
)

// DefaultMaxStepsHint is the default step budget of an n-process run of a
// protocol of complexity c. All-to-all exchanges cost Θ(n²) events per
// round, so a flat constant that is generous at n=64 silently truncates
// legitimate n=8192 runs; 24·n² covers the quadratic protocols in this
// repository with an order-of-magnitude margin (the full-coin hybrid run
// measures ~3.1·n² events at n=1024), and a linear one gets 8192·n.
// DefaultMaxSteps stays the floor of both, so small-n runs keep the
// historical bound; non-positive n (protocols that never report a topology)
// gets the floor.
func DefaultMaxStepsHint(n int, c StepComplexity) int64 {
	budget := 24 * int64(n) * int64(n)
	if c == StepsLinear {
		budget = 8192 * int64(n)
	}
	if n <= 0 || budget < DefaultMaxSteps {
		return DefaultMaxSteps
	}
	return budget
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

// Setup is the part of a run's inputs every protocol shares: its seed, its
// crash pattern, its bounds and its network's delay policy.
// protocol.Scenario compiles it once (Scenario.Setup) for every adapter,
// core.RunVariant's included, and no other type embeds it.
type Setup struct {
	// Seed pins all randomness of the run — coins, delays, crash subsets,
	// random overlay views: identical Configs yield identical results.
	Seed int64
	// Crashes is the failure pattern; nil means crash-free.
	Crashes *failures.Schedule
	// MaxVirtualTime bounds the virtual clock of a run: once the next event
	// lies past it the run is aborted and undecided processes end as
	// StatusBlocked. Zero means unbounded (quiescence detection and
	// MaxSteps still bound stuck runs).
	MaxVirtualTime time.Duration
	// MaxSteps bounds the number of scheduler events of a run — the
	// deterministic guard against executions that never converge. Zero
	// derives the budget from the topology and the protocol's step
	// complexity (DefaultMaxStepsHint); negative means unbounded.
	MaxSteps int64
	// NetOption configures the run's network beyond its seed and counters,
	// e.g. the delay policy of a compiled network profile or
	// netsim.WithUniformDelay. The zero Option delivers every message
	// immediately, in deterministic send order.
	NetOption netsim.Option
}

// Engine is the engine's record of a run: its clock, its event count and
// how it ended. driver.RunHandlers returns it, and every result type embeds
// it untagged, so encoding/json writes its fields in place.
type Engine struct {
	// Elapsed is the duration of the run on the virtual clock — always
	// equal to VirtualTime, so a result is bit-reproducible from its Config.
	Elapsed time.Duration
	// VirtualTime is the virtual clock at the end of the run.
	VirtualTime time.Duration
	// Steps is the number of discrete events the engine processed.
	Steps int64
	// Quiesced reports that the engine aborted the run because no process
	// could ever take another step — the deterministic "blocked forever"
	// verdict, e.g. when the liveness condition does not hold.
	Quiesced bool
	// DeadlineExceeded / StepsExceeded report that the engine cut the run
	// short at the MaxVirtualTime / MaxSteps bound. Unlike Quiesced, a
	// bounded-out run is INCONCLUSIVE about liveness: the execution might
	// have decided given more budget, so callers classifying non-decision
	// must keep it apart from blocked-forever.
	DeadlineExceeded bool
	StepsExceeded    bool
	// Sched counts the scheduler's internal work (events scheduled,
	// timer-wheel cascades, deepest bucket). Deterministic: same Config,
	// same counts.
	Sched vclock.SchedulerStats
}

// BoundedOut reports whether the run was cut short by an artificial bound
// (MaxVirtualTime or MaxSteps) rather than deciding or quiescing on its
// own — the inconclusive verdict, distinct from blocked-forever.
func (e Engine) BoundedOut() bool { return e.DeadlineExceeded || e.StepsExceeded }

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
	Engine
}
