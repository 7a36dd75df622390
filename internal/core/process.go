package core

import (
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

// proc is one simulated process, a driver.Reactor (DESIGN.md §11): its
// identity, its cluster's shared objects, the network, its coins, its crash
// plan, and the resumable state of its round machine. The only wait point of
// either algorithm is the collect loop of msg_exchange, so that state is the
// open exchange (r, ph) and the estimates; everything between two exchanges
// runs straight-line inside one invocation. Every step happens in the
// algorithm's statement order, however invocations split the run, so the
// network's RNG stream and the (at,seq) order follow from it.
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
	subset [2]uint64      // seeds the "arbitrary subset" of an interrupted broadcast
	out    outcome        // how the process ended, once React has returned true

	alg       Algorithm
	maxRounds int            // 0 = unbounded
	pending   []heldVote     // votes for later exchanges, in arrival order
	sup       *model.Quorum  // the tally of the exchange in progress
	prng      coin.PRNGLocal // backs local unless Config.LocalCoinOverride

	// ablateCluster skips the cluster consensus (see Config); false = the
	// paper's algorithms.
	ablateCluster bool

	r    int         // open round; 0 before the first invocation
	ph   int         // open exchange: phase 1 or 2
	est  model.Value // value being exchanged at (r, ph)
	est1 model.Value // round-carried estimate (est of Algorithm 3)
}

// finish records the outcome; React returns its result, retiring the
// process.
func (p *proc) finish(out outcome) bool {
	p.out = out
	return true
}

// stop ends the process where it waits: crashed if a timed crash struck it,
// blocked otherwise.
func (p *proc) stop() bool {
	if p.h.Killed() {
		return p.crash(p.ph)
	}
	p.log.Append(p.id, trace.KindBlocked, p.r, p.ph, model.Bot)
	return p.finish(outcome{status: StatusBlocked, round: p.r})
}

// crash logs a crash at phase ph of the open round and finishes the process.
func (p *proc) crash(ph int) bool {
	p.log.Append(p.id, trace.KindCrash, p.r, ph, model.Bot)
	return p.finish(outcome{status: StatusCrashed, round: p.r})
}

// atCrashPoint reports whether the process must crash at the given step
// point of the open round.
func (p *proc) atCrashPoint(ph int, stage failures.Stage) bool {
	return p.sched.ShouldCrash(p.id, failures.Point{Round: p.r, Phase: ph, Stage: stage})
}

// broadcastDecide broadcasts DECIDE(v) to all processes (lines 12/17).
func (p *proc) broadcastDecide(v model.Value) {
	p.ctr.AddDecideMsgs(int64(p.part.N()))
	p.net.Broadcast(p.id, DecideMsg{Val: v})
}

// decide handles the "about to decide v" step shared by both algorithms:
// honor a before-decide crash (optionally delivering DECIDE to a planned
// subset — a crash in the middle of the DECIDE broadcast), then broadcast
// DECIDE and decide. It always finishes the process.
func (p *proc) decide(ph int, v model.Value) bool {
	if p.atCrashPoint(ph, failures.StageBeforeDecide) {
		plan, _ := p.sched.Plan(p.id)
		if len(plan.DeliverTo) > 0 {
			p.ctr.AddDecideMsgs(int64(len(plan.DeliverTo)))
			p.net.BroadcastSubset(p.id, DecideMsg{Val: v}, plan.DeliverTo)
		}
		return p.crash(ph)
	}
	p.broadcastDecide(v)
	p.log.Append(p.id, trace.KindDecide, p.r, ph, v)
	return p.finish(outcome{status: StatusDecided, val: v, round: p.r})
}

// clusterPropose invokes CONS_x[r, ph].propose(v) on the cluster's
// consensus object and records the cost. Under the cluster-consensus
// ablation it returns v unchanged (no agreement, no cost).
func (p *proc) clusterPropose(ph int, v model.Value) model.Value {
	if p.ablateCluster {
		return v
	}
	out := p.cons.Propose(p.r, ph, v)
	p.ctr.AddConsInvocations(1)
	p.log.Append(p.id, trace.KindClusterAgree, p.r, ph, out)
	return out
}
