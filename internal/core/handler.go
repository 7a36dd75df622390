package core

import (
	"fmt"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/trace"
)

// reactor is the inline handler-body form of a process (driver.Reactor,
// DESIGN.md §11): the same Algorithm 2/3 execution as runLocalCoin /
// runCommonCoin, re-expressed as a resumable state machine so the
// scheduler can invoke it directly — no goroutine, no channel rendezvous
// per delivery. The only wait point of either algorithm is the collect
// loop of msg_exchange, so the resumable position is just "which exchange
// (r, ph) is open"; everything between two exchanges runs straight-line
// inside one invocation.
//
// Behavioral parity with the coroutine form is load-bearing (the
// differential suite pins it): every broadcast, trace append, counter
// increment, crash point, and message consumption happens at the same
// sequence position as in the coroutine body, so both forms produce
// identical Results — decisions, rounds, message counts, even virtual
// time and step counts — for the same Config.
type reactor struct {
	*proc
	alg      Algorithm
	proposal model.Value
	store    *outcome // this process's slot in execEnv.outcomes

	started bool
	r       int         // current round
	ph      int         // exchange in progress: phase 1 or 2
	est     model.Value // value being exchanged at (r, ph)
	est1    model.Value // round-carried estimate (est of Algorithm 3)
	done    bool
}

// newReactor builds process i's handler body.
func (env *execEnv) newReactor(cfg *Config, i int, p *proc) *reactor {
	return &reactor{
		proc:     p,
		alg:      cfg.Algorithm,
		proposal: cfg.Proposals[i],
		store:    &env.outcomes[i],
	}
}

// finish records the outcome and retires the reactor.
func (rx *reactor) finish(out outcome) bool {
	*rx.store = out
	rx.done = true
	return true
}

// React runs one invocation: drain every deliverable message into the open
// exchange and advance the round machine to its next wait point.
func (rx *reactor) React(aborted bool) bool {
	if rx.done {
		return true
	}
	if !rx.started {
		if aborted {
			// The run aborted before this process's first step — the
			// coroutine form's fn would never run, leaving the zero
			// outcome. (Unreachable in practice: initial steps precede
			// any event.)
			rx.done = true
			return true
		}
		rx.started = true
		rx.log.Append(rx.id, trace.KindPropose, 0, 0, rx.proposal)
		rx.est1 = rx.proposal
		if out := rx.nextRound(); out != nil {
			return rx.finish(*out)
		}
	}
	if aborted {
		// The inline analogue of a blocking Receive returning false on
		// abort: the queued messages (if any) stay unconsumed, exactly as
		// a coroutine resumed out of Park with false would leave them.
		if rx.killedNow() {
			return rx.finish(rx.crashNow(rx.r, rx.ph))
		}
		rx.log.Append(rx.id, trace.KindBlocked, rx.r, rx.ph, model.Bot)
		return rx.finish(outcome{status: StatusBlocked, round: rx.r})
	}
	// The batched drain: one invocation consumes the whole ring inbox,
	// feeding the collect loop of Algorithm 1 (lines 4-7) and running the
	// follow-up round logic whenever an exchange exits.
	for {
		if rx.sup.exitCondition() {
			rx.log.Append(rx.id, trace.KindExchangeExit, rx.r, rx.ph, rx.est)
			if out := rx.afterExchange(); out != nil {
				return rx.finish(*out)
			}
			continue
		}
		msg, ok, closed := rx.net.ReceiveNow(rx.id)
		if !ok {
			if rx.killedNow() {
				return rx.finish(rx.crashNow(rx.r, rx.ph))
			}
			if closed {
				rx.log.Append(rx.id, trace.KindBlocked, rx.r, rx.ph, model.Bot)
				return rx.finish(outcome{status: StatusBlocked, round: rx.r})
			}
			return false // inbox drained; wait for the next wake
		}
		if rx.killedNow() {
			// A timed crash struck: halt before acting on what was received
			// (the message is consumed, as the coroutine's Receive had
			// already consumed it too).
			return rx.finish(rx.crashNow(rx.r, rx.ph))
		}
		if out := rx.feedExchange(phaseKey{round: rx.r, phase: rx.ph}, rx.sup, msg); out != nil {
			return rx.finish(*out)
		}
	}
}

// nextRound advances to round r+1 and runs its opening straight-line steps
// — round-bound/abort check, round-start crash point, phase-1 cluster
// consensus — up to opening the phase-1 exchange. A non-nil outcome ends
// the execution.
func (rx *reactor) nextRound() *outcome {
	rx.r++
	r := rx.r
	if out := rx.checkAbort(r); out != nil {
		return out
	}
	rx.log.Append(rx.id, trace.KindRoundStart, r, 1, rx.est1)
	if rx.atCrashPoint(failures.Point{Round: r, Phase: 1, Stage: failures.StageRoundStart}) {
		out := rx.crashNow(r, 1)
		return &out
	}
	rx.est1 = rx.clusterPropose(r, 1, rx.est1) // line 4: agree inside the cluster
	if rx.atCrashPoint(failures.Point{Round: r, Phase: 1, Stage: failures.StageAfterClusterConsensus}) {
		out := rx.crashNow(r, 1)
		return &out
	}
	return rx.openExchange(1, rx.est1) // line 5
}

// openExchange starts msg_exchange(rx.r, ph, est): broadcast plus pending
// replay (beginExchange). The pump then collects until the exit condition
// holds.
func (rx *reactor) openExchange(ph int, est model.Value) *outcome {
	rx.ph, rx.est = ph, est
	_, out := rx.beginExchange(rx.r, ph, est)
	return out
}

// afterExchange runs the straight-line steps that follow a satisfied
// exchange, up to the next wait point: the phase-2 exchange (Algorithm 2
// phase 1), the decision logic plus the next round (phase 2), or the
// common-coin consultation plus the next round (Algorithm 3).
func (rx *reactor) afterExchange() *outcome {
	r := rx.r
	if rx.alg == CommonCoin {
		if rx.atCrashPoint(failures.Point{Round: r, Phase: 1, Stage: failures.StageAfterExchange}) {
			out := rx.crashNow(r, 1)
			return &out
		}
		s := rx.common.Bit(r) // line 6: same bit at every process
		rx.log.Append(rx.id, trace.KindCoinFlip, r, 1, s)
		rx.ctr.ObserveRound(int64(r))
		if v, ok := rx.sup.MajorityValue(); ok { // line 7
			rx.est1 = v // line 8
			if s == v {
				out := rx.decideNow(r, 1, v) // line 9
				return &out
			}
		} else {
			rx.est1 = s // line 10
		}
		return rx.nextRound()
	}

	// Algorithm 2 (local coin).
	if rx.ph == 1 {
		if rx.atCrashPoint(failures.Point{Round: r, Phase: 1, Stage: failures.StageAfterExchange}) {
			out := rx.crashNow(r, 1)
			return &out
		}
		est2 := model.Bot
		if v, ok := rx.sup.MajorityValue(); ok { // lines 6-7
			est2 = v
		}
		est2 = rx.clusterPropose(r, 2, est2) // line 8
		if rx.atCrashPoint(failures.Point{Round: r, Phase: 2, Stage: failures.StageAfterClusterConsensus}) {
			out := rx.crashNow(r, 2)
			return &out
		}
		return rx.openExchange(2, est2) // line 9
	}
	if rx.atCrashPoint(failures.Point{Round: r, Phase: 2, Stage: failures.StageAfterExchange}) {
		out := rx.crashNow(r, 2)
		return &out
	}
	rec := rx.sup.Received() // line 10
	rx.ctr.ObserveRound(int64(r))
	switch {
	case len(rec) == 1 && rec[0].IsBinary(): // line 12: rec = {v}
		out := rx.decideNow(r, 2, rec[0])
		return &out
	case len(rec) == 2 && rec[1] == model.Bot: // line 13: rec = {v,⊥}
		rx.est1 = rec[0]
	case len(rec) == 1 && rec[0] == model.Bot: // line 14: rec = {⊥}
		rx.est1 = rx.local.Flip()
		rx.ctr.AddCoinFlips(1)
		rx.log.Append(rx.id, trace.KindCoinFlip, r, 2, rx.est1)
	default:
		return &outcome{
			status: StatusFailed,
			round:  r,
			err: fmt.Errorf(
				"core: weak agreement violated at %v round %d: rec = %v", rx.id, r, rec),
		}
	}
	return rx.nextRound()
}
