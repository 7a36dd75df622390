package core

import (
	"math/rand/v2"

	"allforone/internal/coin"
	"allforone/internal/consensusobj"
	"allforone/internal/driver"
	"allforone/internal/failures"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/sim"
	"allforone/internal/trace"
)

// Status re-exports the shared outcome vocabulary (see internal/sim).
type Status = sim.Status

// Statuses re-exported for ergonomic use by core's callers.
const (
	StatusDecided = sim.StatusDecided
	StatusCrashed = sim.StatusCrashed
	StatusBlocked = sim.StatusBlocked
	StatusFailed  = sim.StatusFailed
)

// outcome is the internal result of one process's execution.
type outcome struct {
	status Status
	val    model.Value // meaningful iff status == StatusDecided
	round  int         // round at which the execution ended
	err    error       // meaningful iff status == StatusFailed
}

// proc is one simulated process: its identity, its cluster's shared
// objects, the network, its coins, and its crash plan. A proc is owned by
// exactly one scheduler process (a coroutine or a reactor).
type proc struct {
	id     model.ProcID
	part   *model.Partition
	net    *netsim.Network
	cons   *consensusobj.Array // CONS_x[·,·] of this process's cluster
	local  coin.Local
	common coin.Common
	sched  *failures.Schedule
	ctr    *metrics.Counters
	log    *trace.Log
	h      *driver.Handle // the engine's abort/kill state (see internal/driver)
	rng    *rand.Rand     // drives the "arbitrary subset" of interrupted broadcasts

	maxRounds int // 0 = unbounded
	pending   map[phaseKey][]bufferedMsg
	sup       *supporters // the tally of the exchange in progress

	// Ablation switches (see Config). Both default to false = the paper's
	// algorithms.
	ablateClosure bool
	ablateCluster bool
}

// abortedNow reports whether the engine has aborted the execution
// (quiescence, deadline, or step budget).
func (p *proc) abortedNow() bool { return p.h.Aborted() }

// killedNow reports whether a timed crash has struck this process; it
// halts at the next step point that observes it.
func (p *proc) killedNow() bool { return p.h.Killed() }

// checkAbort implements the per-round stop conditions: a timed crash, the
// MaxRounds cap, and the runner's abort signal. Exchange blocks also
// observe the abort, but a process whose mailbox never drains would
// otherwise keep executing rounds past the runner's bound; the
// round-boundary check limits that overrun to one round. It returns a
// non-nil outcome when the process must stop.
func (p *proc) checkAbort(r int) *outcome {
	if p.killedNow() {
		out := p.crashNow(r, 1)
		return &out
	}
	if p.abortedNow() || (p.maxRounds > 0 && r > p.maxRounds) {
		p.log.Append(p.id, trace.KindBlocked, r, 0, model.Bot)
		return &outcome{status: StatusBlocked, round: r - 1}
	}
	return nil
}

// crashNow logs and performs a crash at the current point. It must only be
// called after sched.ShouldCrash returned true.
func (p *proc) crashNow(round, phase int) outcome {
	p.log.Append(p.id, trace.KindCrash, round, phase, model.Bot)
	return outcome{status: StatusCrashed, round: round}
}

// atCrashPoint reports whether the process must crash at the given step
// point.
func (p *proc) atCrashPoint(pt failures.Point) bool {
	return p.sched.ShouldCrash(p.id, pt)
}

// broadcastPhase performs the broadcast step of Algorithm 1 line 3,
// honoring a mid-broadcast crash: if the failure plan interrupts this
// broadcast, only the planned (or seeded-random) subset receives the
// message and the process halts.
func (p *proc) broadcastPhase(r, ph int, est model.Value) (crashed bool) {
	pt := failures.Point{Round: r, Phase: ph, Stage: failures.StageMidBroadcast}
	if p.atCrashPoint(pt) {
		plan, _ := p.sched.Plan(p.id)
		recipients := plan.DeliverTo
		if recipients == nil {
			recipients = failures.RandomSubset(p.rng, p.part.N())
		}
		p.net.BroadcastSubset(p.id, PhaseMsg{Round: r, Phase: ph, Est: est}, recipients)
		return true
	}
	p.log.Append(p.id, trace.KindBroadcast, r, ph, est)
	p.net.Broadcast(p.id, PhaseMsg{Round: r, Phase: ph, Est: est})
	return false
}

// broadcastDecide broadcasts DECIDE(v) to all processes (lines 12/17).
func (p *proc) broadcastDecide(v model.Value) {
	p.ctr.AddDecideMsgs(int64(p.part.N()))
	p.net.Broadcast(p.id, DecideMsg{Val: v})
}

// decideNow handles the "about to decide v" step shared by both
// algorithms: honor a before-decide crash (optionally delivering DECIDE to
// a planned subset — a crash in the middle of the DECIDE broadcast), then
// broadcast DECIDE and return the decision.
func (p *proc) decideNow(r, ph int, v model.Value) outcome {
	pt := failures.Point{Round: r, Phase: ph, Stage: failures.StageBeforeDecide}
	if p.atCrashPoint(pt) {
		plan, _ := p.sched.Plan(p.id)
		if len(plan.DeliverTo) > 0 {
			p.ctr.AddDecideMsgs(int64(len(plan.DeliverTo)))
			p.net.BroadcastSubset(p.id, DecideMsg{Val: v}, plan.DeliverTo)
		}
		return p.crashNow(r, ph)
	}
	p.broadcastDecide(v)
	p.log.Append(p.id, trace.KindDecide, r, ph, v)
	return outcome{status: StatusDecided, val: v, round: r}
}

// clusterPropose invokes CONS_x[r, ph].propose(v) on the cluster's
// consensus object and records the cost. Under the cluster-consensus
// ablation it returns v unchanged (no agreement, no cost).
func (p *proc) clusterPropose(r, ph int, v model.Value) model.Value {
	if p.ablateCluster {
		return v
	}
	out := p.cons.Propose(r, ph, v)
	p.ctr.AddConsInvocations(1)
	p.log.Append(p.id, trace.KindClusterAgree, r, ph, out)
	return out
}
