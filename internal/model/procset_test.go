package model

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestProcSetBasics(t *testing.T) {
	t.Parallel()
	s := NewProcSet(10)
	if s.Count() != 0 {
		t.Fatalf("new set Count = %d, want 0", s.Count())
	}
	s.Add(3)
	s.Add(7)
	s.Add(3) // idempotent
	if got := s.Count(); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	if !s.Contains(3) || !s.Contains(7) {
		t.Error("Contains(3)/Contains(7) should hold")
	}
	if s.Contains(4) {
		t.Error("Contains(4) should not hold")
	}
}

func TestProcSetOutOfRangeIgnored(t *testing.T) {
	t.Parallel()
	s := NewProcSet(5)
	s.Add(-1)
	s.Add(5)
	s.Add(1000)
	if got := s.Count(); got != 0 {
		t.Errorf("Count after out-of-range adds = %d, want 0", got)
	}
	if s.Contains(-1) || s.Contains(5) {
		t.Error("out-of-range Contains must be false")
	}
}

func TestProcSetMajority(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name    string
		n       int
		members []ProcID
		want    bool
	}{
		{"empty", 7, nil, false},
		{"half of even", 4, []ProcID{0, 1}, false},
		{"majority of even", 4, []ProcID{0, 1, 2}, true},
		{"floor half of odd", 7, []ProcID{0, 1, 2}, false},
		{"majority of odd", 7, []ProcID{0, 1, 2, 3}, true},
		{"all", 3, []ProcID{0, 1, 2}, true},
		{"single universe", 1, []ProcID{0}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			s := NewProcSet(tt.n)
			s.AddAll(tt.members)
			if got := s.IsMajority(); got != tt.want {
				t.Errorf("IsMajority(%v of n=%d) = %v, want %v", tt.members, tt.n, got, tt.want)
			}
		})
	}
}

func TestProcSetUnion(t *testing.T) {
	t.Parallel()
	a := NewProcSet(100)
	b := NewProcSet(100)
	a.AddAll([]ProcID{1, 5, 64, 99})
	b.AddAll([]ProcID{5, 63, 64, 70})

	a.UnionInto(b)
	if got := a.Count(); got != 6 {
		t.Errorf("Count after UnionInto = %d, want 6", got)
	}
	for _, p := range []ProcID{1, 5, 63, 64, 70, 99} {
		if !a.Contains(p) {
			t.Errorf("union should contain %v", p)
		}
	}
	// b unchanged.
	if got := b.Count(); got != 4 {
		t.Errorf("b.Count after UnionInto = %d, want 4", got)
	}
}

func TestProcSetUnionNil(t *testing.T) {
	t.Parallel()
	a := NewProcSet(8)
	a.Add(2)
	a.UnionInto(nil)
	if got := a.Count(); got != 1 {
		t.Errorf("Count after UnionInto(nil) = %d, want 1", got)
	}
}

func TestProcSetCloneIndependence(t *testing.T) {
	t.Parallel()
	a := NewProcSet(16)
	a.Add(4)
	c := a.Clone()
	c.Add(9)
	if a.Contains(9) {
		t.Error("mutating clone affected original")
	}
	if !c.Contains(4) || !c.Contains(9) {
		t.Error("clone lost members")
	}
}

func TestProcSetMembersSorted(t *testing.T) {
	t.Parallel()
	a := NewProcSet(10)
	a.AddAll([]ProcID{9, 0, 5})
	got := a.Members()
	want := []ProcID{0, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
}

func TestProcSetString(t *testing.T) {
	t.Parallel()
	a := NewProcSet(5)
	if got := a.String(); got != "{}" {
		t.Errorf("empty String = %q, want {}", got)
	}
	a.AddAll([]ProcID{0, 3})
	if got := a.String(); got != "{p1,p4}" {
		t.Errorf("String = %q, want {p1,p4}", got)
	}
}

// Property: Count equals the number of distinct in-range ids inserted.
func TestProcSetCountMatchesDistinctInsertions(t *testing.T) {
	t.Parallel()
	f := func(raw []uint8) bool {
		const n = 64
		s := NewProcSet(n)
		distinct := map[int]bool{}
		for _, r := range raw {
			id := int(r) % (2 * n) // half in-range, half out
			s.Add(ProcID(id))
			if id < n {
				distinct[id] = true
			}
		}
		return s.Count() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// AddAll inserts every id in ps.
func (s *ProcSet) AddAll(ps []ProcID) {
	for _, p := range ps {
		s.Add(p)
	}
}

// UnionInto adds every member of other into s. The two sets must range over
// the same universe; mismatched sets are merged over the shorter word span.
// Only other's populated word span is visited, so merging a small dense set
// (a cluster closure) into a wide one costs O(|span|), not O(n/64).
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

// IsMajority reports whether the set covers a strict majority of the
// universe (|s| > n/2), the exit condition of Algorithm 1 line 7.
func (s *ProcSet) IsMajority() bool { return 2*s.Count() > s.n }
