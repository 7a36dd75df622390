package benor

import (
	"fmt"
	"slices"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/sim"
)

// reactor is the inline handler-body form of a Ben-Or process
// (driver.Reactor, DESIGN.md §11): the same algorithm as proc.run,
// re-expressed as a resumable state machine invoked directly by the
// scheduler. The only wait point is the collect loop of exchange, so the
// resumable position is just "which (r, ph) tally is open"; everything
// between two exchanges runs straight-line inside one invocation. Every
// broadcast, counter increment, crash point, and message consumption
// happens at the same sequence position as in the coroutine body, so both
// forms produce identical Results for the same Config.
type reactor struct {
	*proc
	proposal model.Value
	store    *outcome // this process's result slot

	started bool
	r       int // current round
	ph      int // exchange in progress: phase 1 or 2
	est1    model.Value
	t       tally
	done    bool
}

// finish records the outcome and retires the reactor.
func (rx *reactor) finish(out outcome) bool {
	*rx.store = out
	rx.done = true
	return true
}

// React runs one invocation: drain every deliverable message into the open
// tally and advance the round machine to its next wait point.
func (rx *reactor) React(aborted bool) bool {
	if rx.done {
		return true
	}
	if !rx.started {
		if aborted {
			rx.done = true // the coroutine's fn would never have run
			return true
		}
		rx.started = true
		rx.est1 = rx.proposal
		if out := rx.nextRound(); out != nil {
			return rx.finish(*out)
		}
	}
	if aborted {
		// Queued messages stay unconsumed, exactly as a coroutine resumed
		// out of Park with false would leave them.
		if rx.killedNow() {
			return rx.finish(outcome{status: sim.StatusCrashed, round: rx.r})
		}
		return rx.finish(outcome{status: sim.StatusBlocked, round: rx.r})
	}
	for {
		if 2*rx.t.total > rx.n {
			if out := rx.afterExchange(); out != nil {
				return rx.finish(*out)
			}
			continue
		}
		msg, ok, closed := rx.net.ReceiveNow(rx.id)
		if !ok {
			if rx.killedNow() {
				return rx.finish(outcome{status: sim.StatusCrashed, round: rx.r})
			}
			if closed {
				return rx.finish(outcome{status: sim.StatusBlocked, round: rx.r})
			}
			return false // inbox drained; wait for the next wake
		}
		if rx.killedNow() {
			return rx.finish(outcome{status: sim.StatusCrashed, round: rx.r})
		}
		if out := rx.feedExchange(phaseKey{round: rx.r, phase: rx.ph}, &rx.t, msg); out != nil {
			return rx.finish(*out)
		}
	}
}

// nextRound advances to round r+1 and runs its opening steps up to opening
// the phase-1 exchange.
func (rx *reactor) nextRound() *outcome {
	rx.r++
	r := rx.r
	if out := rx.checkAbort(r); out != nil {
		return out
	}
	if rx.sched.ShouldCrash(rx.id, failures.Point{Round: r, Phase: 1, Stage: failures.StageRoundStart}) {
		return &outcome{status: sim.StatusCrashed, round: r}
	}
	return rx.openExchange(1, rx.est1)
}

// openExchange starts the (rx.r, ph) exchange: broadcast plus pending
// replay (beginExchange).
func (rx *reactor) openExchange(ph int, est model.Value) *outcome {
	rx.ph = ph
	return rx.beginExchange(rx.r, ph, est, &rx.t)
}

// afterExchange runs the steps that follow a satisfied exchange, up to the
// next wait point: the phase-2 exchange, or the decision logic plus the
// next round.
func (rx *reactor) afterExchange() *outcome {
	r := rx.r
	if rx.ph == 1 {
		if rx.sched.ShouldCrash(rx.id, failures.Point{Round: r, Phase: 1, Stage: failures.StageAfterExchange}) {
			return &outcome{status: sim.StatusCrashed, round: r}
		}
		est2 := model.Bot
		if v, ok := rx.t.majorityValue(rx.n); ok {
			est2 = v
		}
		return rx.openExchange(2, est2)
	}
	if rx.sched.ShouldCrash(rx.id, failures.Point{Round: r, Phase: 2, Stage: failures.StageAfterExchange}) {
		return &outcome{status: sim.StatusCrashed, round: r}
	}
	rec, k := rx.t.received()
	rx.ctr.ObserveRound(int64(r))
	switch {
	case k == 1 && rec[0].IsBinary():
		out := rx.decideNow(r, 2, rec[0])
		return &out
	case k == 2 && rec[1] == model.Bot:
		rx.est1 = rec[0]
	case k == 1 && rec[0] == model.Bot:
		rx.est1 = rx.local.Flip()
		rx.ctr.AddCoinFlips(1)
	default:
		return &outcome{
			status: sim.StatusFailed,
			round:  r,
			err:    fmt.Errorf("benor: weak agreement violated at %v round %d: rec = %v", rx.id, r, slices.Clone(rec[:k])),
		}
	}
	return rx.nextRound()
}
