package model

// Quorum is the one-for-all tally of one exchange, Algorithm 1 lines 4–7:
// "if p_i receives (r, ph, v) from p_j ∈ P[x], it is as if it received the
// very same message from all the processes of P[x]" (line 6), and the
// exchange exits once the closure of the senders covers a strict majority
// of Π (line 7). For each value it keeps the paper's supporters_i[v] — the
// cluster closure of the senders of v — and the union over all values.
//
// A Quorum is bound to the Partition whose clusters it closes over. Over
// Singletons(n) every closure is the sender alone, so the same Quorum
// counts distinct senders: the classical majority rule, with no switch.
//
// An owner runs one exchange at a time and reads the tally only before it
// opens the next, so it keeps one Quorum for its whole execution and Resets
// it per exchange. A Quorum is not safe for concurrent use.
type Quorum struct {
	part   *Partition
	byVal  []ProcSet // indexed by value+1: ⊥, 0, 1
	covers *ProcSet  // union over all values: the exit-condition set
	rec    [3]Value  // backs Received's result
}

// Vote is one (sender, estimate) message an owner holds back for an
// exchange it has not opened yet, to Add once it opens it.
type Vote struct {
	From ProcID
	Est  Value
}

// NewQuorum returns an empty Quorum over the clusters of part.
func NewQuorum(part *Partition) *Quorum {
	sets := NewProcSets(part.N(), 4)
	return &Quorum{part: part, byVal: sets[:3], covers: &sets[3]}
}

// Reset empties the tally for the next exchange.
func (q *Quorum) Reset() {
	for i := range q.byVal {
		q.byVal[i].Clear()
	}
	q.covers.Clear()
}

// Add accounts one message carrying v from sender through the sender's
// cluster closure. v must be ⊥, 0 or 1.
func (q *Quorum) Add(sender ProcID, v Value) {
	closure := q.part.Cluster(sender)
	q.byVal[v+1].UnionInto(closure)
	q.covers.UnionInto(closure)
}

// Covered is the exit condition of Algorithm 1 line 7: the closure of the
// senders covers a strict majority of Π.
func (q *Quorum) Covered() bool { return q.covers.IsMajority() }

// Majority returns the binary value supported by more than n/2 processes,
// if any. At most one such value exists in a real execution: two
// majorities intersect, and by cluster uniformity every process supports
// one value per exchange.
func (q *Quorum) Majority() (Value, bool) {
	for _, v := range [...]Value{Zero, One} {
		if q.byVal[v+1].IsMajority() {
			return v, true
		}
	}
	return Bot, false
}

// Received returns the distinct values with at least one supporter, binary
// values first, then ⊥ — the paper's rec_i set (Algorithm 2 line 10). The
// result is valid until the next call.
func (q *Quorum) Received() []Value {
	out := q.rec[:0]
	for _, v := range [...]Value{Zero, One, Bot} {
		if q.byVal[v+1].Count() > 0 {
			out = append(out, v)
		}
	}
	return out
}
