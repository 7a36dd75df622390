package model

import (
	"fmt"
	"strings"
)

// ProcSet is a set of process indexes backed by a bitmap. It is the
// workhorse of the msg_exchange communication pattern (Algorithm 1), where
// each process accumulates the cluster-closure of the senders it has heard
// from and exits once the closure covers a strict majority of Π.
//
// A ProcSet is not safe for concurrent use; each simulated process owns its
// own sets.
type ProcSet struct {
	n      int
	cnt    int // cardinality, maintained incrementally: Count is O(1)
	lo, hi int // word-index bounds of the set bits (lo > hi ⇒ empty)
	words  []uint64
}

// NewProcSet returns an empty set over the universe {0 … n-1}.
func NewProcSet(n int) *ProcSet {
	if n < 0 {
		n = 0
	}
	w := (n + 63) / 64
	return &ProcSet{n: n, lo: w, hi: -1, words: make([]uint64, w)}
}

// Add inserts p. Out-of-range ids are ignored so that callers can feed
// untrusted message contents without a bounds check at every site.
func (s *ProcSet) Add(p ProcID) {
	i := int(p)
	if i < 0 || i >= s.n {
		return
	}
	w, bit := i>>6, uint64(1)<<(uint(i)&63)
	if s.words[w]&bit == 0 {
		s.words[w] |= bit
		s.cnt++
		if w < s.lo {
			s.lo = w
		}
		if w > s.hi {
			s.hi = w
		}
	}
}

// Contains reports whether p is in the set.
func (s *ProcSet) Contains(p ProcID) bool {
	i := int(p)
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the cardinality of the set. It is O(1): mutators keep the
// count up to date, so reading it costs no bitmap scan.
func (s *ProcSet) Count() int { return s.cnt }

// Clone returns an independent copy of the set.
func (s *ProcSet) Clone() *ProcSet {
	c := &ProcSet{n: s.n, cnt: s.cnt, lo: s.lo, hi: s.hi, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Members returns the sorted member ids.
func (s *ProcSet) Members() []ProcID {
	out := make([]ProcID, 0, s.Count())
	for i := 0; i < s.n; i++ {
		if s.Contains(ProcID(i)) {
			out = append(out, ProcID(i))
		}
	}
	return out
}

// String renders the set in the paper's style, e.g. "{p1,p4,p5}".
func (s *ProcSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, p := range s.Members() {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprint(&b, p)
	}
	b.WriteByte('}')
	return b.String()
}
