package core

import (
	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/trace"
)

// supporters is the paper's supporters_i[·] family for one execution of the
// communication pattern: for each value v received in (r, ph, v) messages,
// the cluster-closure of the senders — "if p_i receives (r, ph, v) from
// p_j ∈ P[x], it is as if it received the very same message from all the
// processes of P[x]" (Algorithm 1 line 6).
//
// A process executes one exchange at a time and reads a tally only before
// it opens the next, so each proc owns a single table for its whole
// execution and resets it per exchange.
type supporters struct {
	byVal  []model.ProcSet // indexed by value+1: ⊥, 0, 1
	covers *model.ProcSet  // union over all values (exit-condition set)
	rec    [3]model.Value  // backs Received's result
}

func newSupporters(n int) *supporters {
	sets := model.NewProcSets(n, 4)
	return &supporters{byVal: sets[:3], covers: &sets[3]}
}

// reset empties the table for the next exchange.
func (s *supporters) reset() {
	for i := range s.byVal {
		s.byVal[i].Clear()
	}
	s.covers.Clear()
}

// add accounts one (r, ph, v) message from sender via its cluster closure.
// With closureOff (the ablation) only the sender itself is counted.
func (s *supporters) add(part *model.Partition, sender model.ProcID, v model.Value, closureOff bool) {
	set := s.Of(v)
	if closureOff {
		set.Add(sender)
		s.covers.Add(sender)
		return
	}
	closure := part.Cluster(sender)
	set.UnionInto(closure)
	s.covers.UnionInto(closure)
}

// Of returns the supporter set of value v (possibly empty).
func (s *supporters) Of(v model.Value) *model.ProcSet { return &s.byVal[v+1] }

// MajorityValue returns the binary value supported by more than n/2
// processes, if any. At most one such value can exist (two majorities
// intersect, and by cluster uniformity every process supports one value
// per (r, ph)).
func (s *supporters) MajorityValue() (model.Value, bool) {
	for _, v := range []model.Value{model.Zero, model.One} {
		if s.Of(v).IsMajority() {
			return v, true
		}
	}
	return model.Bot, false
}

// Received returns the set of distinct values with at least one supporter —
// the paper's rec_i set (Algorithm 2 line 10). The result is valid until
// the next call.
func (s *supporters) Received() []model.Value {
	out := s.rec[:0]
	for _, v := range []model.Value{model.Zero, model.One, model.Bot} {
		if s.Of(v).Count() > 0 {
			out = append(out, v)
		}
	}
	return out
}

// exitCondition is Algorithm 1 line 7: the closure of received senders
// covers a strict majority of Π.
func (s *supporters) exitCondition() bool { return s.covers.IsMajority() }

// beginExchange opens msg_exchange(r, ph, est), Algorithm 1: broadcast
// (r, ph, est) to all, including self (line 3), and replay the messages
// earlier exchanges buffered for this position. React then collects
// (r, ph, −) messages, accounting each sender's whole cluster as supporters
// of the carried value, until the closure covers a majority (lines 4-7). A
// mid-broadcast crash delivers to the planned (or seeded-random) subset
// only and halts the process. It reports whether the process finished.
func (p *proc) beginExchange(ph int, est model.Value) bool {
	p.ph, p.est = ph, est
	p.sup.reset()
	msg := PhaseMsg{Round: p.r, Phase: ph, Est: est}
	if p.atCrashPoint(ph, failures.StageMidBroadcast) {
		plan, _ := p.sched.Plan(p.id)
		recipients := plan.DeliverTo
		if recipients == nil {
			recipients = failures.RandomSubset(p.rng, p.part.N())
		}
		p.net.BroadcastSubset(p.id, msg, recipients)
		return p.crash(ph)
	}
	p.log.Append(p.id, trace.KindBroadcast, p.r, ph, est)
	p.net.Broadcast(p.id, msg)

	cur := phaseKey{round: p.r, phase: ph}
	for _, bm := range p.pending[cur] {
		p.sup.add(p.part, bm.from, bm.est, p.ablateClosure)
	}
	delete(p.pending, cur)
	return false
}

// feedExchange accounts one received message against the open exchange:
// current-position phase messages feed the supporters tally, later ones are
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
			p.sup.add(p.part, msg.From, payload.Est, p.ablateClosure)
		case cur.less(k):
			p.pending[k] = append(p.pending[k], bufferedMsg{from: msg.From, est: payload.Est})
		}
	}
	return false
}
