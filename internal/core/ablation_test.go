package core

import (
	"errors"
	"testing"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/trace"
)

// Ablation 1: without the cluster closure, the one-for-all property is
// gone — the E2 majority-crash pattern blocks exactly like pure message
// passing, even though cluster consensus still runs.
func TestAblateClosureLosesMajorityCrashTolerance(t *testing.T) {
	t.Parallel()
	part := model.Fig1Right()
	sched, err := failures.CrashAllExcept(7,
		failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Partition:     part,
		Proposals:     unanimous(7, model.One),
		Algorithm:     LocalCoin,
		Seed:          1,
		Crashes:       sched,
		AblateClosure: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, _, decided := res.Decided(); decided {
		t.Fatal("closure-ablated run decided despite 6/7 crashes")
	}
	if res.Procs[2].Status != StatusBlocked {
		t.Errorf("survivor status = %v, want blocked", res.Procs[2].Status)
	}
}

// The closure-ablated algorithm must still be safe and live under the
// classical conditions (minority crash).
func TestAblateClosureStillSafeWithMajority(t *testing.T) {
	t.Parallel()
	part := model.Fig1Left()
	props := alternating(7)
	res, err := Run(Config{
		Partition:     part,
		Proposals:     props,
		Algorithm:     LocalCoin,
		Seed:          5,
		MaxRounds:     10_000,
		AblateClosure: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	if err := res.CheckValidity(props); err != nil {
		t.Fatal(err)
	}
	if !res.AllLiveDecided() {
		t.Fatalf("not all decided: %+v", res.Procs)
	}
}

// Ablation 2: without the intra-cluster consensus objects, members of one
// cluster broadcast different values at the same protocol position, so the
// one-for-all premise (cluster uniformity) is violated — observable in the
// trace, and runs may abort with ErrInvariantBroken when the corrupted
// accounting produces an impossible rec set.
func TestAblateClusterConsensusBreaksUniformity(t *testing.T) {
	t.Parallel()
	part := model.Fig1Left() // P[1]={p1,p2,p3} will hold split proposals
	props := []model.Value{
		model.Zero, model.One, model.Zero, // split inside P[1]
		model.One, model.One,
		model.Zero, model.Zero,
	}
	sawViolation := false
	for seed := int64(0); seed < 10 && !sawViolation; seed++ {
		log := trace.New()
		res, err := Run(Config{
			Partition:              part,
			Proposals:              props,
			Algorithm:              LocalCoin,
			Seed:                   seed,
			MaxRounds:              50,
			Trace:                  log,
			AblateClusterConsensus: true,
		})
		if err != nil {
			if errors.Is(err, ErrInvariantBroken) {
				sawViolation = true // the accounting collapsed — expected
				break
			}
			t.Fatalf("Run: %v", err)
		}
		if trace.CheckClusterUniformity(log, part) != nil {
			sawViolation = true
		}
		_ = res
	}
	if !sawViolation {
		t.Fatal("cluster-consensus ablation never violated uniformity — the ingredient seems unnecessary, which contradicts the paper")
	}
}

// The full algorithm on the same inputs never violates uniformity — the
// control arm of the ablation.
func TestFullAlgorithmKeepsUniformity(t *testing.T) {
	t.Parallel()
	part := model.Fig1Left()
	props := []model.Value{
		model.Zero, model.One, model.Zero,
		model.One, model.One,
		model.Zero, model.Zero,
	}
	for seed := int64(0); seed < 10; seed++ {
		log := trace.New()
		res, err := Run(Config{
			Partition: part,
			Proposals: props,
			Algorithm: LocalCoin,
			Seed:      seed,
			MaxRounds: 10_000,
			Trace:     log,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := trace.CheckClusterUniformity(log, part); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.AllLiveDecided() {
			t.Fatalf("seed %d: not all decided", seed)
		}
	}
}
