package core

import (
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

// msgExchange is Algorithm 1, the operation msg_exchange(r, ph, est):
// broadcast (r, ph, est) to all (including self), then collect (r, ph, −)
// messages, accounting each sender's whole cluster as supporters of the
// carried value, until the accumulated closure covers a majority of
// processes.
//
// It returns the supporters tally, or a non-nil outcome if the execution
// ended inside the pattern: the process crashed mid-broadcast, learned a
// decision via DECIDE (in which case it rebroadcasts DECIDE first, line
// 17), or was aborted by the runner.
//
// Messages for later protocol positions are buffered for replay; messages
// for earlier positions are stale and dropped (their senders have already
// been accounted at those positions or are irrelevant to them).
func (p *proc) msgExchange(r, ph int, est model.Value) (*supporters, *outcome) {
	cur := phaseKey{round: r, phase: ph}
	sup, out := p.beginExchange(r, ph, est)
	if out != nil {
		return nil, out
	}

	// Collect until the closure covers a majority (lines 4-7).
	for !sup.exitCondition() {
		msg, ok := p.net.Receive(p.id)
		if p.killedNow() {
			// A timed crash struck while this process was waiting: it halts
			// here, before acting on whatever was (or was not) received.
			out := p.crashNow(r, ph)
			return nil, &out
		}
		if !ok {
			out := outcome{status: StatusBlocked, round: r}
			p.log.Append(p.id, trace.KindBlocked, r, ph, model.Bot)
			return nil, &out
		}
		if out := p.feedExchange(cur, sup, msg); out != nil {
			return nil, out
		}
	}
	p.log.Append(p.id, trace.KindExchangeExit, r, ph, est)
	return sup, nil
}

// beginExchange opens msg_exchange(r, ph, est) without waiting for any
// message: broadcast (line 3, honoring a mid-broadcast crash) and replay
// the messages earlier exchanges buffered for this position. Both body
// forms open exchanges through it, so the broadcast/replay sequence — and
// with it the network's RNG stream — is identical under either form.
func (p *proc) beginExchange(r, ph int, est model.Value) (*supporters, *outcome) {
	cur := phaseKey{round: r, phase: ph}
	sup := p.sup
	sup.reset()

	if crashed := p.broadcastPhase(r, ph, est); crashed {
		out := p.crashNow(r, ph)
		return nil, &out
	}

	for _, bm := range p.pending[cur] {
		sup.add(p.part, bm.from, bm.est, p.ablateClosure)
	}
	delete(p.pending, cur)
	return sup, nil
}

// feedExchange accounts one received message against the exchange open at
// cur: current-position phase messages feed the supporters tally, future
// ones are buffered for replay, stale ones dropped. It returns a non-nil
// outcome when the message ends the execution — a DECIDE was learned, so
// the process rebroadcasts DECIDE and decides (line 17).
func (p *proc) feedExchange(cur phaseKey, sup *supporters, msg netsim.Message) *outcome {
	switch payload := msg.Payload.(type) {
	case DecideMsg:
		// Line 17: rebroadcast DECIDE, then decide.
		p.broadcastDecide(payload.Val)
		p.log.Append(p.id, trace.KindDecide, cur.round, cur.phase, payload.Val)
		return &outcome{status: StatusDecided, val: payload.Val, round: cur.round}
	case PhaseMsg:
		k := phaseKey{round: payload.Round, phase: payload.Phase}
		switch {
		case k == cur:
			sup.add(p.part, msg.From, payload.Est, p.ablateClosure)
		case cur.less(k):
			p.pending[k] = append(p.pending[k], bufferedMsg{from: msg.From, est: payload.Est})
		default:
			// Stale: an earlier position's message; ignore.
		}
	default:
		// Unknown payloads indicate a wiring bug; ignore defensively.
	}
	return nil
}
