package model

import "math/bits"

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
// it per exchange. A run's owners take theirs from one slab (NewQuorums,
// QuorumSlab). A Quorum is not safe for concurrent use.
//
// The four sets — the supporters of ⊥, 0 and 1, and their union — are bare
// bitmaps in one word slice with a count each: an exchange only adds to them
// and reads their sizes, so they carry no ProcSet header, and Reset clears
// only the word span an exchange touched.
type Quorum struct {
	part   *Partition
	words  []uint64 // four bitmaps of w words each, indexed by set
	w      int      // words per bitmap
	cnt    [4]int   // set sizes
	lo, hi int      // word span touched since the last Reset (lo > hi ⇒ none)
	rec    [3]Value // backs Received's result
}

// The sets of a Quorum: supporters of value v sit at index v+1 (⊥, 0, 1),
// the union over all values after them.
const covers = 3

// Vote is one (sender, estimate) message an owner holds back for an
// exchange it has not opened yet, to Add once it opens it.
type Vote struct {
	From ProcID
	Est  Value
}

// NewQuorums returns k empty Quorums over the clusters of part, carved from
// one allocation of Quorums and one of bitmap words — a run's processes
// take one each.
func NewQuorums(part *Partition, k int) []Quorum {
	var slab QuorumSlab
	return slab.Quorums(part, k)
}

// QuorumSlab is the storage NewQuorums carves a run's Quorums from — the
// Quorums and their bitmap words — for an owner that keeps it from one run
// to the next. The zero QuorumSlab is empty.
type QuorumSlab struct {
	qs    []Quorum
	words []uint64
}

// slabSlack bounds what a QuorumSlab keeps: storage holding more than
// slabSlack times what a call to Quorums needs is dropped, so the words of a
// dense run (512 KB at n = 1024 over ten clusters) do not ride every small
// run after it.
const slabSlack = 4

// Quorums returns k empty Quorums over the clusters of part, as NewQuorums
// does, on the slab's storage: it is grown when short and replaced when it
// holds over slabSlack times what the call needs, and the words it hands
// out are cleared. The Quorums an earlier call returned must no longer be
// in use.
func (s *QuorumSlab) Quorums(part *Partition, k int) []Quorum {
	w := (part.N() + 63) / 64
	if need := 4 * w * k; cap(s.words) < need || cap(s.words) > slabSlack*need {
		s.words = make([]uint64, need)
	} else {
		s.words = s.words[:need]
		clear(s.words)
	}
	if cap(s.qs) < k || cap(s.qs) > slabSlack*k {
		s.qs = make([]Quorum, k)
	}
	s.qs = s.qs[:k]
	for i := range s.qs {
		s.qs[i] = Quorum{part: part, words: s.words[4*w*i : 4*w*(i+1) : 4*w*(i+1)], w: w, lo: w, hi: -1}
	}
	return s.qs
}

// Release clears the slab's Quorums, dropping the partition they close over,
// so that a kept slab holds nothing of its run but its storage.
func (s *QuorumSlab) Release() { clear(s.qs[:cap(s.qs)]) }

// Reset empties the tally for the next exchange.
func (q *Quorum) Reset() {
	if q.lo <= q.hi {
		for set := 0; set < 4; set++ {
			clear(q.words[set*q.w+q.lo : set*q.w+q.hi+1])
		}
	}
	q.cnt = [4]int{}
	q.lo, q.hi = q.w, -1
}

// Add accounts one message carrying v from sender through the sender's
// cluster closure. v must be ⊥, 0 or 1. Only the closure's populated word
// span is visited, so the cost is O(|span|), not O(n/64).
func (q *Quorum) Add(sender ProcID, v Value) {
	closure := q.part.Cluster(sender)
	sup, all := int(v+1)*q.w, covers*q.w
	for i := closure.lo; i <= closure.hi; i++ {
		c := closure.words[i]
		if add := c &^ q.words[sup+i]; add != 0 {
			q.words[sup+i] |= add
			q.cnt[v+1] += bits.OnesCount64(add)
		}
		if add := c &^ q.words[all+i]; add != 0 {
			q.words[all+i] |= add
			q.cnt[covers] += bits.OnesCount64(add)
		}
	}
	q.lo, q.hi = min(q.lo, closure.lo), max(q.hi, closure.hi)
}

// majority reports whether set holds a strict majority of Π.
func (q *Quorum) majority(set int) bool { return 2*q.cnt[set] > q.part.N() }

// Covered is the exit condition of Algorithm 1 line 7: the closure of the
// senders covers a strict majority of Π.
func (q *Quorum) Covered() bool { return q.majority(covers) }

// Majority returns the binary value supported by more than n/2 processes,
// if any. At most one such value exists in a real execution: two
// majorities intersect, and by cluster uniformity every process supports
// one value per exchange.
func (q *Quorum) Majority() (Value, bool) {
	for _, v := range [...]Value{Zero, One} {
		if q.majority(int(v + 1)) {
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
		if q.cnt[v+1] > 0 {
			out = append(out, v)
		}
	}
	return out
}
