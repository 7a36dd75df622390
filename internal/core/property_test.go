package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/trace"
)

// randomPartition draws a partition of n processes into a random number of
// random-size clusters.
func randomPartition(rng *rand.Rand, n int) *model.Partition {
	perm := rng.Perm(n)
	m := 1 + rng.IntN(n)
	clusters := make([][]int, m)
	for i, p := range perm {
		x := i % m
		clusters[x] = append(clusters[x], p)
	}
	return model.MustPartition(clusters)
}

// TestRandomConfigurationSweep is the repository's heaviest property test:
// random topology, proposals, algorithm, crash pattern and delays, with
// full safety checking on every run and termination checking whenever the
// paper's liveness condition holds.
func TestRandomConfigurationSweep(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("sweep is slow; skipped with -short")
	}
	rng := rand.New(rand.NewPCG(0xa11f04e, 0x1))
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.IntN(9) // 2..10 processes
		part := randomPartition(rng, n)
		algo := []Algorithm{LocalCoin, CommonCoin}[rng.IntN(2)]
		props := make([]model.Value, n)
		for i := range props {
			props[i] = model.BitToValue(rng.Uint64())
		}
		k := rng.IntN(n) // up to n-1 crashes
		sched, err := failures.GenRandom(rng, n, k, 3, algo.Phases())
		if err != nil {
			t.Fatal(err)
		}
		live := part.LivenessHolds(sched.Crashed())
		var maxDelay time.Duration
		if rng.IntN(3) == 0 {
			maxDelay = time.Duration(rng.IntN(1500)) * time.Microsecond
		}

		log := trace.New()
		res, err := Run(Config{
			Partition: part,
			Proposals: props,
			Algorithm: algo,
			Seed:      int64(trial) * 6011,
			MaxRounds: 10_000,
			MaxDelay:  maxDelay,
			Crashes:   sched,
			Trace:     log,
		})
		ctx := fmt.Sprintf("trial %d: n=%d part=%v algo=%v crashed=%v live=%v",
			trial, n, part, algo, sched.Crashed(), live)
		if err != nil {
			t.Fatalf("%s: Run: %v", ctx, err)
		}
		if err := res.CheckAgreement(); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if err := res.CheckValidity(props); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if err := trace.CheckClusterUniformity(log, part); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if err := trace.CheckDecisions(log); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if err := trace.CheckNoStepsAfterCrash(log); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if live && !res.AllLiveDecided() {
			t.Fatalf("%s: liveness condition held but some process did not decide: %+v",
				ctx, res.Procs)
		}
	}
}

// Unit-level properties of the supporters accounting (Algorithm 1's data
// structure).
func TestSupportersProperties(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(4, 2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(20)
		part := randomPartition(rng, n)
		sup := newSupporters(n)
		senders := map[model.ProcID]model.Value{}
		msgs := rng.IntN(2 * n)
		for i := 0; i < msgs; i++ {
			sender := model.ProcID(rng.IntN(n))
			v := model.Value(int8(rng.IntN(2)))
			sup.add(part, sender, v, false)
			senders[sender] = v
		}
		// Coverage = union of the clusters of all senders.
		want := model.NewProcSet(n)
		for s := range senders {
			want.UnionInto(part.Cluster(s))
		}
		if got := sup.covers.Count(); got != want.Count() {
			t.Fatalf("trial %d: coverage = %d, want %d", trial, got, want.Count())
		}
		// Each value's supporters are a subset of the coverage.
		for _, v := range []model.Value{model.Zero, model.One, model.Bot} {
			set := sup.Of(v)
			if set.Count() > sup.covers.Count() {
				t.Fatalf("trial %d: supporters(%v) exceeds coverage", trial, v)
			}
		}
		// Exit condition consistent with IsMajority.
		if sup.exitCondition() != sup.covers.IsMajority() {
			t.Fatalf("trial %d: exit condition mismatch", trial)
		}
		// At most one binary value can hold a majority.
		maj := 0
		for _, v := range []model.Value{model.Zero, model.One} {
			if sup.Of(v).IsMajority() {
				maj++
			}
		}
		if maj > 1 {
			// Possible here because one sender may appear with both values
			// in this synthetic feed — but then the sets overlap fully;
			// real executions forbid it via cluster uniformity. Check
			// MajorityValue still returns a single winner deterministically.
			v1, ok1 := sup.MajorityValue()
			if !ok1 || !v1.IsBinary() {
				t.Fatalf("trial %d: MajorityValue inconsistent", trial)
			}
		}
	}
}

// The closure-off variant counts exactly the distinct senders.
func TestSupportersClosureOffCountsSenders(t *testing.T) {
	t.Parallel()
	part := model.Fig1Right()
	sup := newSupporters(7)
	sup.add(part, 1, model.One, true) // p2 ∈ P[2] (size 4)
	sup.add(part, 2, model.One, true)
	sup.add(part, 1, model.One, true) // duplicate
	if got := sup.Of(model.One).Count(); got != 2 {
		t.Errorf("closure-off supporters = %d, want 2", got)
	}
	if sup.exitCondition() {
		t.Error("2 of 7 senders must not satisfy the exit condition")
	}
	// With closure the same two senders cover all of P[2].
	sup2 := newSupporters(7)
	sup2.add(part, 1, model.One, false)
	if got := sup2.Of(model.One).Count(); got != 4 {
		t.Errorf("closure supporters = %d, want 4", got)
	}
	if !sup2.exitCondition() {
		t.Error("P[2]'s closure (4 of 7) must satisfy the exit condition")
	}
}

// Received() reports values in canonical order (binary first, then ⊥).
func TestSupportersReceivedOrder(t *testing.T) {
	t.Parallel()
	part := model.Singletons(5)
	sup := newSupporters(5)
	sup.add(part, 0, model.Bot, false)
	sup.add(part, 1, model.One, false)
	rec := sup.Received()
	if len(rec) != 2 || rec[0] != model.One || rec[1] != model.Bot {
		t.Errorf("Received = %v, want [1 ⊥]", rec)
	}
}

// phaseKey ordering is lexicographic.
func TestPhaseKeyOrdering(t *testing.T) {
	t.Parallel()
	tests := []struct {
		a, b phaseKey
		want bool
	}{
		{phaseKey{1, 1}, phaseKey{1, 2}, true},
		{phaseKey{1, 2}, phaseKey{2, 1}, true},
		{phaseKey{2, 1}, phaseKey{1, 2}, false},
		{phaseKey{1, 1}, phaseKey{1, 1}, false},
	}
	for _, tt := range tests {
		if got := tt.a.less(tt.b); got != tt.want {
			t.Errorf("less(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// Message String renderings (documentation-quality output).
func TestMessageStrings(t *testing.T) {
	t.Parallel()
	pm := PhaseMsg{Round: 3, Phase: 2, Est: model.Bot}
	if got := pm.String(); got != "PHASE(3,2,⊥)" {
		t.Errorf("PhaseMsg.String = %q", got)
	}
	dm := DecideMsg{Val: model.One}
	if got := dm.String(); got != "DECIDE(1)" {
		t.Errorf("DecideMsg.String = %q", got)
	}
}
