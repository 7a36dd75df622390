package model

import (
	"fmt"
	"math/bits"
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

// NewProcSets returns k empty sets over the universe {0 … n-1}, carved from
// one allocation of set headers and one of bitmap words — for owners that
// keep a fixed family of sets and Clear them between uses (the supporters
// table of Algorithm 1 holds four per process).
func NewProcSets(n, k int) []ProcSet {
	if n < 0 {
		n = 0
	}
	w := (n + 63) / 64
	words := make([]uint64, k*w)
	sets := make([]ProcSet, k)
	for i := range sets {
		sets[i] = ProcSet{n: n, lo: w, hi: -1, words: words[i*w : (i+1)*w : (i+1)*w]}
	}
	return sets
}

// Universe returns the size n of the universe the set ranges over.
func (s *ProcSet) Universe() int { return s.n }

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

// AddAll inserts every id in ps.
func (s *ProcSet) AddAll(ps []ProcID) {
	for _, p := range ps {
		s.Add(p)
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
// count up to date, so the per-message exit-condition check of Algorithm 1
// (IsMajority after every accounted sender) costs no bitmap scan.
func (s *ProcSet) Count() int { return s.cnt }

// UnionInto adds every member of other into s. The two sets must range over
// the same universe; mismatched sets are merged over the shorter word span.
// Only other's populated word span is visited, so merging a small dense set
// (a cluster closure) into a wide one costs O(|span|), not O(n/64) — the
// per-message supporters accounting of Algorithm 1 rides on this.
func (s *ProcSet) UnionInto(other *ProcSet) {
	if other == nil {
		return
	}
	lo, hi := other.lo, other.hi
	if k := len(s.words); hi >= k {
		hi = k - 1
	}
	for i := lo; i <= hi; i++ {
		old := s.words[i]
		merged := old | other.words[i]
		if merged != old {
			s.words[i] = merged
			s.cnt += bits.OnesCount64(merged &^ old)
		}
	}
	if lo <= hi {
		if lo < s.lo {
			s.lo = lo
		}
		if hi > s.hi {
			s.hi = hi
		}
	}
}

// UnionCount returns |s ∪ other| without materializing the union.
func (s *ProcSet) UnionCount(other *ProcSet) int {
	if other == nil {
		return s.Count()
	}
	c := 0
	k := len(s.words)
	if len(other.words) > k {
		k = len(other.words)
	}
	for i := 0; i < k; i++ {
		var a, b uint64
		if i < len(s.words) {
			a = s.words[i]
		}
		if i < len(other.words) {
			b = other.words[i]
		}
		c += bits.OnesCount64(a | b)
	}
	return c
}

// IsMajority reports whether the set covers a strict majority of the
// universe (|s| > n/2), the exit condition of Algorithm 1 line 7.
func (s *ProcSet) IsMajority() bool { return 2*s.Count() > s.n }

// Clone returns an independent copy of the set.
func (s *ProcSet) Clone() *ProcSet {
	c := &ProcSet{n: s.n, cnt: s.cnt, lo: s.lo, hi: s.hi, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Clear removes every member, retaining the universe size.
func (s *ProcSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.cnt = 0
	s.lo, s.hi = len(s.words), -1
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
