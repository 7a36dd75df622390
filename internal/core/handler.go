package core

import (
	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/trace"
)

// React runs one invocation: drain every deliverable message into the open
// exchange and advance the round machine to its next wait point.
func (p *proc) React(aborted bool) bool {
	if p.r == 0 {
		if aborted {
			return true // the run ended before this process took a step
		}
		p.env.trace.Append(p.id, trace.KindPropose, 0, 0, p.est1)
		if p.nextRound() {
			return true
		}
	}
	if aborted {
		return p.stop() // queued messages stay unconsumed
	}
	// The batched drain: one invocation consumes the whole ring inbox,
	// feeding the collect loop of Algorithm 1 (lines 4-7) and running the
	// follow-up round logic whenever an exchange exits.
	for {
		if p.sup.Covered() {
			p.env.trace.Append(p.id, trace.KindExchangeExit, p.r, p.ph, p.est)
			if p.afterExchange() {
				return true
			}
			continue
		}
		msg, ok, closed := p.env.nw.ReceiveNow(p.id)
		if p.h.Killed() || (!ok && closed) {
			// A timed crash halts the process before it acts on what it
			// received; a closed, drained inbox leaves it blocked.
			return p.stop()
		}
		if !ok {
			return false // inbox drained; wait for the next wake
		}
		if p.feedExchange(msg) {
			return true
		}
	}
}

// nextRound opens round r+1 and runs its straight-line steps — the round
// bound and abort checks, the round-start crash point — up to opening the
// phase-1 exchange. It reports whether the process finished.
func (p *proc) nextRound() bool {
	p.r++
	switch {
	case p.h.Killed():
		return p.crash(1)
	case p.h.Aborted() || (p.env.maxRounds > 0 && p.r > p.env.maxRounds):
		// A process whose inbox never drains would otherwise keep running
		// rounds past the engine's bound; this check limits the overrun to
		// one round.
		p.env.trace.Append(p.id, trace.KindBlocked, p.r, 0, model.Bot)
		return p.finish(ProcResult{Status: StatusBlocked, Round: p.r - 1})
	}
	p.env.trace.Append(p.id, trace.KindRoundStart, p.r, 1, p.est1)
	if p.atCrashPoint(1, failures.StageRoundStart) {
		return p.crash(1)
	}
	return p.beginExchange(1, p.est1) // lines 4-5
}

// afterExchange runs the straight-line steps that follow a satisfied
// exchange, up to the next wait point, and reports whether the process
// finished.
//
// Algorithm 3 (common coin) has single-phase rounds: consult the common
// coin; if some value v is supported by a majority, adopt it and decide
// when the round's coin bit equals v, otherwise adopt the coin bit. Once
// every surviving process holds the same estimate v, each later round
// decides with probability 1/2, so the expected number of extra rounds is 2
// (paper §IV).
//
// Algorithm 2 (local coin) has two phases, each opened by a cluster
// consensus. Phase 1 establishes the weak agreement WA1: any two non-⊥ est2
// values are equal. Phase 2 establishes WA2: rec = {v} at one process
// excludes rec = {⊥} at another. The decision logic is Ben-Or's (lines
// 12-14): a single value v → decide v; {v, ⊥} → adopt v; {⊥} → local coin.
func (p *proc) afterExchange() bool {
	env := p.env
	if env.v.Memory == nil && p.atCrashPoint(p.ph, failures.StageAfterExchange) {
		return p.crash(p.ph)
	}
	if env.common != nil { // Algorithm 3: the run drew a common coin
		s := env.common.Bit(p.r) // line 6: same bit at every process
		env.trace.Append(p.id, trace.KindCoinFlip, p.r, 1, s)
		env.ctr.ObserveRound(int64(p.r))
		if v, ok := p.sup.Majority(); ok { // line 7
			p.est1 = v // line 8
			if s == v {
				return p.decide(1, v) // line 9
			}
		} else {
			p.est1 = s // line 10
		}
		return p.nextRound()
	}

	if p.ph == 1 {
		est2 := model.Bot
		if v, ok := p.sup.Majority(); ok { // lines 6-7
			est2 = v
		}
		return p.beginExchange(2, est2) // lines 8-9
	}
	rec := p.sup.Received() // line 10
	env.ctr.ObserveRound(int64(p.r))
	switch {
	case len(rec) == 1 && rec[0].IsBinary(): // line 12: rec = {v}
		return p.decide(2, rec[0])
	case len(rec) == 2 && rec[1] == model.Bot: // line 13: rec = {v,⊥}
		p.est1 = rec[0]
	case len(rec) == 1 && rec[0] == model.Bot: // line 14: rec = {⊥}
		p.est1 = p.local.Flip()
		env.ctr.AddCoinFlips(1)
		env.trace.Append(p.id, trace.KindCoinFlip, p.r, 2, p.est1)
	default:
		// Two distinct binary values in rec would violate WA1/WA2 —
		// impossible in a correct implementation; surface loudly (the
		// run's result reports it).
		return p.finish(ProcResult{Status: StatusFailed, Round: p.r})
	}
	return p.nextRound()
}
