package core

import (
	"math/rand/v2"

	"allforone/internal/coin"
	"allforone/internal/driver"
	"allforone/internal/failures"
	"allforone/internal/model"
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

// proc is one simulated process, a driver.Reactor (DESIGN.md §6): its
// identity, its coins, its tally, and the resumable state of its round
// machine; what the run's processes share — the network, the cluster
// memories, the common coin, the crash plan, the counters and the trace —
// sits on the run's env. The only wait point of either algorithm is the
// collect loop of msg_exchange, so that state is the open exchange (r, ph)
// and the estimates; everything between two exchanges runs straight-line
// inside one invocation. Every step happens in the algorithm's statement
// order, however invocations split the run, so the network's RNG stream and
// the (at,seq) order follow from it.
type proc struct {
	env     *execEnv
	id      model.ProcID
	h       *driver.Handle // the engine's abort/kill state (see internal/driver)
	sup     tally          // the tally of the exchange in progress
	local   coin.Local
	pending []heldVote     // votes for later exchanges, in arrival order
	prng    coin.PRNGLocal // backs local unless Variant.LocalCoinOverride
	cnt     counts         // backs sup on a flat variant

	r    int         // open round; 0 before the first invocation
	ph   int         // open exchange: phase 1 or 2
	est  model.Value // value being exchanged at (r, ph)
	est1 model.Value // round-carried estimate (est of Algorithm 3)
}

// finish records how the process ended in its slot of the Result; React
// returns the result, retiring the process.
func (p *proc) finish(out ProcResult) bool {
	p.env.res.Procs[p.id] = out
	return true
}

// stop ends the process where it waits: crashed if a timed crash struck it,
// blocked otherwise.
func (p *proc) stop() bool {
	if p.h.Killed() {
		return p.crash(p.ph)
	}
	p.env.trace.Append(p.id, trace.KindBlocked, p.r, p.ph, model.Bot)
	return p.finish(ProcResult{Status: StatusBlocked, Round: p.r})
}

// crash logs a crash at phase ph of the open round and finishes the process.
func (p *proc) crash(ph int) bool {
	p.env.trace.Append(p.id, trace.KindCrash, p.r, ph, model.Bot)
	return p.finish(ProcResult{Status: StatusCrashed, Round: p.r})
}

// atCrashPoint reports whether the process must crash at the given step
// point of the open round.
func (p *proc) atCrashPoint(ph int, stage failures.Stage) bool {
	return p.env.setup.Crashes.ShouldCrash(p.id, failures.Point{Round: p.r, Phase: ph, Stage: stage})
}

// cutBroadcast is a crash in the middle of a broadcast: msg reaches the
// planned recipients, or a seeded-random subset when the plan names none,
// and the process halts.
func (p *proc) cutBroadcast(ph int, msg any) bool {
	plan, _ := p.env.setup.Crashes.Plan(p.id)
	recipients := plan.DeliverTo
	if recipients == nil {
		// A process cuts at most one broadcast: its subset stream starts
		// here.
		s1, s2 := coin.DeriveLocalSeed(p.env.setup.Seed^p.env.v.SubsetSalt, p.id)
		recipients = failures.RandomSubset(rand.New(rand.NewPCG(s1, s2)), p.env.n)
	}
	p.env.nw.BroadcastSubset(p.id, msg, recipients)
	return p.crash(ph)
}

// broadcastDecide broadcasts DECIDE(v) to all processes (lines 12/17).
func (p *proc) broadcastDecide(v model.Value) {
	p.env.ctr.AddDecideMsgs(int64(p.env.n))
	p.env.nw.Broadcast(p.id, DecideMsg{Val: v})
}

// decide handles the "about to decide v" step shared by both algorithms:
// honor a before-decide crash (optionally delivering DECIDE to a planned
// subset — a crash in the middle of the DECIDE broadcast), then broadcast
// DECIDE and decide. It always finishes the process.
func (p *proc) decide(ph int, v model.Value) bool {
	if p.atCrashPoint(ph, failures.StageBeforeDecide) {
		plan, _ := p.env.setup.Crashes.Plan(p.id)
		if len(plan.DeliverTo) > 0 {
			p.env.ctr.AddDecideMsgs(int64(len(plan.DeliverTo)))
			p.env.nw.BroadcastSubset(p.id, DecideMsg{Val: v}, plan.DeliverTo)
		}
		return p.crash(ph)
	}
	p.broadcastDecide(v)
	p.env.trace.Append(p.id, trace.KindDecide, p.r, ph, v)
	return p.finish(ProcResult{Status: StatusDecided, Decision: v, Round: p.r})
}

// step runs the shared-memory step before the exchange of phase ph and
// returns the estimate to exchange: the cluster's CONS_x[r, ph].propose(v)
// on the hybrid model, recording its cost (under the cluster-consensus
// ablation v passes unchanged, at no cost), the variant's Memory step, or
// nothing on a flat baseline.
func (p *proc) step(ph int, v model.Value) model.Value {
	env := p.env
	switch {
	case env.v.Memory != nil:
		return env.v.Memory(p.id, p.r, ph, v)
	case !env.v.cluster || env.v.AblateClusterConsensus:
		return v
	}
	out := env.arrays[env.part.ClusterOf(p.id)].Propose(p.r, ph, v)
	env.ctr.AddConsInvocations(1)
	env.trace.Append(p.id, trace.KindClusterAgree, p.r, ph, out)
	return out
}
