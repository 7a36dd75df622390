// Package failures injects crash failures into simulated executions.
//
// The model (paper §II-A) allows any process to crash — halt prematurely
// and take no further step. A crash can strike between any two atomic
// steps; in particular a process can crash in the middle of the broadcast
// macro-operation, in which case an arbitrary subset of processes receives
// the message. This package expresses crash plans as (round, phase, stage)
// step points consulted by the algorithm runtime, plus generators for
// random and targeted failure patterns.
package failures

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"allforone/internal/model"
)

// Stage enumerates the step points of one phase of a round at which a crash
// can be injected. Stages are ordered by execution position.
type Stage int

// Execution-ordered stages of a phase.
const (
	// StageRoundStart: at the top of the round, before any step of phase 1.
	// (Only meaningful with Phase 1.)
	StageRoundStart Stage = iota + 1
	// StageAfterClusterConsensus: after CONS_x[r,ph].propose returned, before
	// the broadcast — the cluster has the value but Π was not told.
	StageAfterClusterConsensus
	// StageMidBroadcast: during the broadcast — only a chosen subset of
	// processes receives the message.
	StageMidBroadcast
	// StageAfterExchange: after msg_exchange returned, before acting on it.
	StageAfterExchange
	// StageBeforeDecide: immediately before broadcasting DECIDE.
	StageBeforeDecide
)

// String returns a compact stage name.
func (s Stage) String() string {
	switch s {
	case StageRoundStart:
		return "round-start"
	case StageAfterClusterConsensus:
		return "after-cons"
	case StageMidBroadcast:
		return "mid-broadcast"
	case StageAfterExchange:
		return "after-exchange"
	case StageBeforeDecide:
		return "before-decide"
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// Point is a position in a process's execution: stage `Stage` of phase
// `Phase` of round `Round` (all 1-based; Algorithm 3 has a single phase,
// always 1).
type Point struct {
	Round int
	Phase int
	Stage Stage
}

// Compare orders points by execution position: round, then phase, then
// stage. It returns -1, 0 or +1.
func (p Point) Compare(q Point) int {
	switch {
	case p.Round != q.Round:
		if p.Round < q.Round {
			return -1
		}
		return 1
	case p.Phase != q.Phase:
		if p.Phase < q.Phase {
			return -1
		}
		return 1
	case p.Stage != q.Stage:
		if p.Stage < q.Stage {
			return -1
		}
		return 1
	}
	return 0
}

// String renders the point, e.g. "r3/ph1/mid-broadcast".
func (p Point) String() string {
	return fmt.Sprintf("r%d/ph%d/%s", p.Round, p.Phase, p.Stage)
}

// Crash is one process's crash plan: the process halts at the first step
// point it reaches that is ≥ At. For StageMidBroadcast, DeliverTo lists the
// processes that still receive the interrupted broadcast; nil DeliverTo
// lets the runtime draw a seeded-random subset (the paper's "arbitrary
// subset, possibly empty").
type Crash struct {
	At        Point
	DeliverTo []model.ProcID
}

// Schedule is a full failure pattern: which processes crash, and where.
// Crash points come in two flavors: step points ((round, phase, stage)
// positions in the algorithm, Set) and timed instants (a point on the run
// clock, SetTimed — exact virtual instants, installed by
// internal/driver). A Schedule is immutable after construction; methods
// with value semantics are safe for concurrent use.
type Schedule struct {
	n       int
	crashes map[model.ProcID]Crash
	timed   map[model.ProcID]time.Duration
}

// NewSchedule returns an empty (crash-free) schedule over n processes.
func NewSchedule(n int) *Schedule {
	return &Schedule{
		n:       n,
		crashes: make(map[model.ProcID]Crash),
		timed:   make(map[model.ProcID]time.Duration),
	}
}

// Set installs a crash plan for process p, replacing any previous plan.
// Out-of-range processes are rejected.
func (s *Schedule) Set(p model.ProcID, c Crash) error {
	if int(p) < 0 || int(p) >= s.n {
		return fmt.Errorf("failures: process %v out of range [0,%d)", p, s.n)
	}
	if c.At.Round < 1 || c.At.Phase < 1 || c.At.Stage < StageRoundStart || c.At.Stage > StageBeforeDecide {
		return fmt.Errorf("failures: invalid crash point %v", c.At)
	}
	s.crashes[p] = c
	return nil
}

// SetTimed schedules process p to crash at instant at (measured from the
// start of the run). The process halts at the first step point it reaches
// once the run clock passes at — a crash between two atomic steps, as the
// model demands. The instant is exact and deterministic. A process may
// carry both a timed and a step-point plan; whichever strikes first wins.
func (s *Schedule) SetTimed(p model.ProcID, at time.Duration) error {
	if int(p) < 0 || int(p) >= s.n {
		return fmt.Errorf("failures: process %v out of range [0,%d)", p, s.n)
	}
	if at < 0 {
		return fmt.Errorf("failures: negative crash instant %v", at)
	}
	s.timed[p] = at
	return nil
}

// N returns the process count the schedule was built over. A nil schedule
// reports 0.
func (s *Schedule) N() int {
	if s == nil {
		return 0
	}
	return s.n
}

// ValidateFor reports an error if the schedule references any process
// outside [0, n) — e.g. a schedule built over 7 processes attached to a
// 5-process run. Scenario builders call it so a bad pairing is rejected at
// configuration time instead of panicking mid-run when the engine indexes
// its per-process crash state. A nil schedule is always valid.
func (s *Schedule) ValidateFor(n int) error {
	if s == nil {
		return nil
	}
	for p := range s.crashes {
		if int(p) >= n {
			return fmt.Errorf("failures: crash plan for %v but the run has only %d processes", p, n)
		}
	}
	for p := range s.timed {
		if int(p) >= n {
			return fmt.Errorf("failures: timed crash for %v but the run has only %d processes", p, n)
		}
	}
	return nil
}

// HasStepPoints reports whether any process carries a step-point
// ((round, phase, stage)) crash plan.
func (s *Schedule) HasStepPoints() bool { return s != nil && len(s.crashes) > 0 }

// HasTimed reports whether any process carries a timed crash instant.
func (s *Schedule) HasTimed() bool { return s != nil && len(s.timed) > 0 }

// TimedPlan returns p's timed crash instant, if any.
func (s *Schedule) TimedPlan(p model.ProcID) (time.Duration, bool) {
	if s == nil {
		return 0, false
	}
	at, ok := s.timed[p]
	return at, ok
}

// TimedCrash is one entry of a schedule's virtual-instant crash plan.
type TimedCrash struct {
	P  model.ProcID
	At time.Duration
}

// Timed returns every timed crash, sorted by process id — a deterministic
// order the virtual engine can install events in. A nil schedule has none.
func (s *Schedule) Timed() []TimedCrash {
	if s == nil || len(s.timed) == 0 {
		return nil
	}
	out := make([]TimedCrash, 0, len(s.timed))
	for p, at := range s.timed {
		out = append(out, TimedCrash{P: p, At: at})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].P < out[j].P })
	return out
}

// Plan returns p's crash plan, if any.
func (s *Schedule) Plan(p model.ProcID) (Crash, bool) {
	if s == nil {
		return Crash{}, false
	}
	c, ok := s.crashes[p]
	return c, ok
}

// ShouldCrash reports whether process p, arriving at step point pt, must
// crash now (pt is at or past its planned crash point). A nil schedule
// never crashes anyone.
func (s *Schedule) ShouldCrash(p model.ProcID, pt Point) bool {
	if s == nil {
		return false
	}
	c, ok := s.crashes[p]
	if !ok {
		return false
	}
	return pt.Compare(c.At) >= 0
}

// Crashed returns the set of processes that eventually crash, for liveness
// condition checks. A nil schedule yields an empty set over 0 processes.
func (s *Schedule) Crashed() *model.ProcSet {
	if s == nil {
		return model.NewProcSet(0)
	}
	set := model.NewProcSet(s.n)
	for p := range s.crashes {
		set.Add(p)
	}
	for p := range s.timed {
		set.Add(p)
	}
	return set
}

// Len returns the number of distinct processes scheduled to crash.
func (s *Schedule) Len() int {
	if s == nil {
		return 0
	}
	n := len(s.crashes)
	for p := range s.timed {
		if _, dup := s.crashes[p]; !dup {
			n++
		}
	}
	return n
}

// CrashAllExcept builds a schedule crashing every process at the given
// point except the listed survivors. This is the paper's flagship pattern:
// crash everything but one member of a majority cluster.
func CrashAllExcept(n int, at Point, survivors ...model.ProcID) (*Schedule, error) {
	keep := model.NewProcSet(n)
	for _, p := range survivors {
		if int(p) < 0 || int(p) >= n {
			return nil, fmt.Errorf("failures: survivor %v out of range [0,%d)", p, n)
		}
		keep.Add(p)
	}
	s := NewSchedule(n)
	for i := 0; i < n; i++ {
		p := model.ProcID(i)
		if keep.Contains(p) {
			continue
		}
		if err := s.Set(p, Crash{At: at}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// GenRandom draws a random failure pattern: k distinct processes crash at
// uniform points within rounds [1, maxRound], with uniformly drawn phase
// (1..phases) and stage. The subset delivered by an interrupted broadcast
// is left to the runtime (DeliverTo nil).
func GenRandom(rng *rand.Rand, n, k, maxRound, phases int) (*Schedule, error) {
	if k < 0 || k > n {
		return nil, fmt.Errorf("failures: cannot crash %d of %d processes", k, n)
	}
	if maxRound < 1 || phases < 1 {
		return nil, fmt.Errorf("failures: need maxRound ≥ 1 and phases ≥ 1")
	}
	s := NewSchedule(n)
	perm := rng.Perm(n)
	stages := []Stage{
		StageRoundStart, StageAfterClusterConsensus, StageMidBroadcast,
		StageAfterExchange, StageBeforeDecide,
	}
	for _, idx := range perm[:k] {
		pt := Point{
			Round: 1 + rng.IntN(maxRound),
			Phase: 1 + rng.IntN(phases),
			Stage: stages[rng.IntN(len(stages))],
		}
		if pt.Stage == StageRoundStart {
			pt.Phase = 1
		}
		if err := s.Set(model.ProcID(idx), Crash{At: pt}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// RandomSubset draws the "arbitrary subset" of recipients of an interrupted
// broadcast: each process is independently included with probability 1/2.
// The result may be empty, as the paper allows.
func RandomSubset(rng *rand.Rand, n int) []model.ProcID {
	var out []model.ProcID
	for i := 0; i < n; i++ {
		if rng.Uint64()&1 == 1 {
			out = append(out, model.ProcID(i))
		}
	}
	return out
}
