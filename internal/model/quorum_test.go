package model

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// randomClusters draws a partition of n processes into a random number of
// random-size clusters.
func randomClusters(rng *rand.Rand, n int) *Partition {
	perm := rng.Perm(n)
	m := 1 + rng.IntN(n)
	clusters := make([][]int, m)
	for i, p := range perm {
		x := i
		if i >= m {
			x = rng.IntN(m)
		}
		clusters[x] = append(clusters[x], p)
	}
	return MustPartition(clusters)
}

// Unit-level properties of the closure accounting (Algorithm 1's data
// structure) over random partitions and random feeds.
func TestQuorumProperties(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(4, 2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(20)
		part := randomClusters(rng, n)
		// Two Quorums of one slab: the second must stay untouched.
		slab := NewQuorums(part, 2)
		q, other := &slab[0], &slab[1]
		senders := map[ProcID]Value{}
		msgs := rng.IntN(2 * n)
		for i := 0; i < msgs; i++ {
			sender := ProcID(rng.IntN(n))
			v := Value(int8(rng.IntN(2)))
			q.Add(sender, v)
			senders[sender] = v
		}
		// Coverage = union of the clusters of all senders.
		want := NewProcSet(n)
		for s := range senders {
			want.UnionInto(part.Cluster(s))
		}
		if got := q.cnt[covers]; got != want.Count() {
			t.Fatalf("trial %d: coverage = %d, want %d", trial, got, want.Count())
		}
		// Each value's supporters are a subset of the coverage.
		for _, v := range []Value{Zero, One, Bot} {
			if q.cnt[v+1] > q.cnt[covers] {
				t.Fatalf("trial %d: supporters(%v) exceeds coverage", trial, v)
			}
		}
		if q.Covered() != want.IsMajority() {
			t.Fatalf("trial %d: Covered = %v, want %v", trial, q.Covered(), want.IsMajority())
		}
		// Majority names a value whose supporters hold a majority; this
		// synthetic feed may give one sender both values, so both may.
		if v, ok := q.Majority(); ok != (q.majority(int(Zero+1)) || q.majority(int(One+1))) ||
			(ok && !q.majority(int(v+1))) {
			t.Fatalf("trial %d: Majority = (%v, %v) inconsistent with the tally", trial, v, ok)
		}
		q.Reset()
		if q.Covered() || len(q.Received()) != 0 || q.cnt[covers] != 0 {
			t.Fatalf("trial %d: Reset left %v covering %d", trial, q.Received(), q.cnt[covers])
		}
		for i, w := range slab[0].words {
			if w != 0 || other.words[i] != 0 {
				t.Fatalf("trial %d: word %d survived Reset or leaked across the slab", trial, i)
			}
		}
	}
}

// A Quorum over Singletons(n) counts exactly the distinct senders of each
// value, and Covered is then the classical majority of distinct senders —
// the equivalence core's closure ablation rests on.
func TestQuorumOverSingletonsCountsDistinctSenders(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(9, 11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(150)
		q := &NewQuorums(Singletons(n), 1)[0]
		byVal := map[Value]map[ProcID]bool{}
		all := map[ProcID]bool{}
		for i, msgs := 0, rng.IntN(3*n); i < msgs; i++ {
			sender := ProcID(rng.IntN(n))
			v := Value(int8(rng.IntN(3)) - 1)
			q.Add(sender, v)
			if byVal[v] == nil {
				byVal[v] = map[ProcID]bool{}
			}
			byVal[v][sender] = true
			all[sender] = true
		}
		for _, v := range []Value{Bot, Zero, One} {
			if got := q.cnt[v+1]; got != len(byVal[v]) {
				t.Fatalf("trial %d n=%d: supporters(%v) = %d, want %d distinct senders", trial, n, v, got, len(byVal[v]))
			}
		}
		if got := q.Covered(); got != (2*len(all) > n) {
			t.Fatalf("trial %d n=%d: Covered = %v with %d distinct senders", trial, n, got, len(all))
		}
	}
}

// The same two senders: over singletons they count as two, over Fig. 1
// right's P[2] their closure covers all four of its members.
func TestQuorumSingletonsCountSenders(t *testing.T) {
	t.Parallel()
	flat := &NewQuorums(Singletons(7), 1)[0]
	flat.Add(1, One) // p2 ∈ P[2] (size 4)
	flat.Add(2, One)
	flat.Add(1, One) // duplicate
	if got := flat.cnt[One+1]; got != 2 {
		t.Errorf("supporters over singletons = %d, want 2", got)
	}
	if flat.Covered() {
		t.Error("2 of 7 senders must not satisfy the exit condition")
	}
	closed := &NewQuorums(Fig1Right(), 1)[0]
	closed.Add(1, One)
	if got := closed.cnt[One+1]; got != 4 {
		t.Errorf("closure supporters = %d, want 4", got)
	}
	if !closed.Covered() {
		t.Error("P[2]'s closure (4 of 7) must satisfy the exit condition")
	}
	if v, ok := closed.Majority(); !ok || v != One {
		t.Errorf("Majority = (%v, %v), want (1, true)", v, ok)
	}
}

// Received reports values in canonical order (binary first, then ⊥).
func TestQuorumReceivedOrder(t *testing.T) {
	t.Parallel()
	q := &NewQuorums(Singletons(5), 1)[0]
	q.Add(0, Bot)
	q.Add(1, One)
	rec := q.Received()
	if len(rec) != 2 || rec[0] != One || rec[1] != Bot {
		t.Errorf("Received = %v, want [1 ⊥]", rec)
	}
}

// TestQuorumSlabFollowsTheRun: a QuorumSlab hands out Quorums as NewQuorums
// does — empty, whatever the run before left in them — on storage that
// follows the run: reused for a run of the same size, dropped for one that
// needs under 1/slabSlack of it, so the 512 KB of words a dense run grew
// (Blocks(1024, 10)) do not ride the n = 7 runs after it.
func TestQuorumSlabFollowsTheRun(t *testing.T) {
	t.Parallel()
	dense, err := Blocks(1024, 10)
	if err != nil {
		t.Fatal(err)
	}
	var slab QuorumSlab
	fill := func(qs []Quorum) {
		for i := range qs {
			for p := 0; p < qs[i].part.N(); p++ {
				qs[i].Add(ProcID(p), One)
			}
		}
	}
	fill(slab.Quorums(dense, 1024))
	slab.Release()
	if c := cap(slab.words); c != 4*16*1024 {
		t.Fatalf("a dense run's slab holds %d words, want %d", c, 4*16*1024)
	}

	part := Fig1Right()
	qs := slab.Quorums(part, part.N())
	if need := 4 * part.N(); cap(slab.words) > slabSlack*need || cap(slab.qs) > slabSlack*part.N() {
		t.Fatalf("an n=%d run takes %d words and %d Quorums, want at most %d and %d",
			part.N(), cap(slab.words), cap(slab.qs), slabSlack*need, slabSlack*part.N())
	}
	fill(qs)
	words := &slab.words[0]
	slab.Release()
	for i, q := range slab.qs[:cap(slab.qs)] {
		if q.part != nil || q.words != nil {
			t.Fatalf("released Quorum %d keeps %+v", i, q)
		}
	}
	qs = slab.Quorums(Fig1Left(), 7)
	if &slab.words[0] != words {
		t.Fatal("a run of the same size did not reuse the slab's words")
	}
	for i := range qs {
		if qs[i].Covered() || len(qs[i].Received()) != 0 || slices.ContainsFunc(qs[i].words, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("Quorum %d of a reused slab is not empty: %+v", i, qs[i])
		}
	}
}
