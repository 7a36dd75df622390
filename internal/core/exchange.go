package core

import (
	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/trace"
)

// beginExchange opens msg_exchange(r, ph, est), Algorithm 1, after the
// phase's shared-memory step (Algorithm 2 lines 4/8, Algorithm 3 line 4):
// broadcast (r, ph, est) to all, including self (line 3), and replay the
// messages earlier exchanges buffered for this position. React then collects
// (r, ph, −) messages until the tally covers a majority (lines 4-7). A
// mid-broadcast crash delivers to the planned (or seeded-random) subset only
// and halts the process. It reports whether the process finished.
func (p *proc) beginExchange(ph int, est model.Value) bool {
	p.ph = ph
	est = p.step(ph, est)
	if p.env.v.stepPoint(ph) && p.atCrashPoint(ph, failures.StageAfterClusterConsensus) {
		return p.crash(ph)
	}
	p.est = est
	p.sup.Reset()
	msg := phaseMsgs.Get(p.r, ph, est)
	if p.atCrashPoint(ph, failures.StageMidBroadcast) {
		return p.cutBroadcast(ph, msg)
	}
	p.env.trace.Append(p.id, trace.KindBroadcast, p.r, ph, est)
	p.env.nw.Broadcast(p.id, msg)

	// Replay the votes held for this exchange, in arrival order, and keep
	// the ones for later exchanges.
	cur := phaseKey{round: p.r, phase: ph}
	kept := p.pending[:0]
	for _, h := range p.pending {
		if h.key() == cur {
			p.sup.Add(model.ProcID(h.from), h.est)
		} else {
			kept = append(kept, h)
		}
	}
	p.pending = kept
	return false
}

// feedExchange accounts one received message against the open exchange:
// current-position phase messages feed the exchange's tally, later ones are
// buffered for replay, and stale ones are dropped (their senders were
// already accounted at those positions or are irrelevant to them). A DECIDE
// ends the execution: the process rebroadcasts it and decides (line 17). It
// reports whether the process finished.
func (p *proc) feedExchange(msg netsim.Message) bool {
	cur := phaseKey{round: p.r, phase: p.ph}
	switch payload := msg.Payload.(type) {
	case DecideMsg:
		p.broadcastDecide(payload.Val)
		p.env.trace.Append(p.id, trace.KindDecide, p.r, p.ph, payload.Val)
		return p.finish(ProcResult{Status: StatusDecided, Decision: payload.Val, Round: p.r})
	case PhaseMsg:
		k := phaseKey{round: payload.Round, phase: payload.Phase}
		switch {
		case k == cur:
			p.sup.Add(msg.From, payload.Est)
		case cur.less(k):
			if p.pending == nil {
				p.pending = make([]heldVote, 0, p.env.n) // one exchange's worth
			}
			p.pending = append(p.pending, heldVote{
				round: int32(k.round), from: int32(msg.From), phase: int8(k.phase), est: payload.Est,
			})
		}
	}
	return false
}

// tally is the count of one exchange: model.Quorum on the hybrid model,
// counts on a flat variant, whose every cluster is one process.
type tally interface {
	// Reset empties the tally for the next exchange.
	Reset()
	// Add accounts one message carrying v from sender.
	Add(sender model.ProcID, v model.Value)
	// Covered reports whether the senders cover a strict majority of Π.
	Covered() bool
	// Majority returns the binary value supported by more than n/2
	// processes, if any.
	Majority() (model.Value, bool)
	// Received returns the distinct values received, binary values first,
	// then ⊥ (the rec_i set); the result is valid until the next call.
	Received() []model.Value
}

// counts is the tally of an exchange over singletons: with no cluster to
// close over, the supporters of a value are its senders, so a count per
// value is the whole state (paper §III-B). The network never duplicates a
// message, so counting messages counts distinct senders.
type counts struct {
	n   int32
	c   [3]int32 // c[v+1] for v = ⊥, 0, 1
	rec [3]model.Value
}

// Reset implements tally.
func (t *counts) Reset() { t.c = [3]int32{} }

// Add implements tally.
func (t *counts) Add(_ model.ProcID, v model.Value) { t.c[v+1]++ }

// Covered implements tally.
func (t *counts) Covered() bool { return 2*(t.c[0]+t.c[1]+t.c[2]) > t.n }

// Majority implements tally.
func (t *counts) Majority() (model.Value, bool) {
	for _, v := range [...]model.Value{model.Zero, model.One} {
		if 2*t.c[v+1] > t.n {
			return v, true
		}
	}
	return model.Bot, false
}

// Received implements tally.
func (t *counts) Received() []model.Value {
	out := t.rec[:0]
	for _, v := range [...]model.Value{model.Zero, model.One, model.Bot} {
		if t.c[v+1] > 0 {
			out = append(out, v)
		}
	}
	return out
}
