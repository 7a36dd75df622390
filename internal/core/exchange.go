package core

import (
	"math/rand/v2"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/trace"
)

// beginExchange opens msg_exchange(r, ph, est), Algorithm 1: broadcast
// (r, ph, est) to all, including self (line 3), and replay the messages
// earlier exchanges buffered for this position. React then collects
// (r, ph, −) messages, accounting each sender's whole cluster as supporters
// of the carried value, until the closure covers a majority (lines 4-7). A
// mid-broadcast crash delivers to the planned (or seeded-random) subset
// only and halts the process. It reports whether the process finished.
func (p *proc) beginExchange(ph int, est model.Value) bool {
	p.ph, p.est = ph, est
	p.sup.Reset()
	msg := phaseMsgs.Get(p.r, ph, est)
	if p.atCrashPoint(ph, failures.StageMidBroadcast) {
		plan, _ := p.sched.Plan(p.id)
		recipients := plan.DeliverTo
		if recipients == nil {
			// A process cuts at most one broadcast: its subset stream
			// starts here.
			recipients = failures.RandomSubset(rand.New(rand.NewPCG(p.subset[0], p.subset[1])), p.part.N())
		}
		p.net.BroadcastSubset(p.id, msg, recipients)
		return p.crash(ph)
	}
	p.log.Append(p.id, trace.KindBroadcast, p.r, ph, est)
	p.net.Broadcast(p.id, msg)

	// Replay the votes held for this exchange, in arrival order, and keep
	// the ones for later exchanges.
	cur := phaseKey{round: p.r, phase: ph}
	kept := p.pending[:0]
	for _, h := range p.pending {
		if h.at == cur {
			p.sup.Add(h.vote.From, h.vote.Est)
		} else {
			kept = append(kept, h)
		}
	}
	p.pending = kept
	return false
}

// feedExchange accounts one received message against the open exchange:
// current-position phase messages feed the exchange's Quorum, later ones are
// buffered for replay, and stale ones are dropped (their senders were
// already accounted at those positions or are irrelevant to them). A DECIDE
// ends the execution: the process rebroadcasts it and decides (line 17). It
// reports whether the process finished.
func (p *proc) feedExchange(msg netsim.Message) bool {
	cur := phaseKey{round: p.r, phase: p.ph}
	switch payload := msg.Payload.(type) {
	case DecideMsg:
		p.broadcastDecide(payload.Val)
		p.log.Append(p.id, trace.KindDecide, p.r, p.ph, payload.Val)
		return p.finish(outcome{status: StatusDecided, val: payload.Val, round: p.r})
	case PhaseMsg:
		k := phaseKey{round: payload.Round, phase: payload.Phase}
		switch {
		case k == cur:
			p.sup.Add(msg.From, payload.Est)
		case cur.less(k):
			if p.pending == nil {
				p.pending = make([]heldVote, 0, p.part.N()) // one exchange's worth
			}
			p.pending = append(p.pending, heldVote{at: k, vote: model.Vote{From: msg.From, Est: payload.Est}})
		}
	}
	return false
}
