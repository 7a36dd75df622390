package core

import (
	"testing"

	"allforone/internal/coin"
	"allforone/internal/model"
)

// fixedCommon rigs the common coin to a repeating bit table.
func fixedCommon(bits ...model.Value) coin.Common { return coin.NewFixedCommon(bits...) }

// fixedLocal rigs every process's local coin to a repeating sequence.
func fixedLocal(seq ...model.Value) func(model.ProcID) coin.Local {
	return func(model.ProcID) coin.Local { return coin.NewFixedLocal(seq...) }
}

// With a matching rigged coin, Algorithm 3 decides in round 1 under
// unanimity: the majority value equals the coin bit immediately.
func TestCommonCoinDecidesRoundOneWhenCoinMatches(t *testing.T) {
	t.Parallel()
	res, err := Run(Config{
		Partition:          model.Fig1Right(),
		Proposals:          unanimous(7, model.One),
		Algorithm:          CommonCoin,
		Seed:               1,
		MaxRounds:          10,
		CommonCoinOverride: fixedCommon(model.One),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.AllLiveDecided() {
		t.Fatalf("not all decided: %+v", res.Procs)
	}
	val, _, _ := res.Decided()
	if val != model.One {
		t.Errorf("decided %v, want 1", val)
	}
	if got := res.MaxDecisionRound(); got != 1 {
		t.Errorf("decision round = %d, want 1", got)
	}
}

// With the coin alternating 0,1 and unanimous 1-proposals, round 1 cannot
// decide (coin=0 ≠ majority value 1) but round 2 must (coin=1).
func TestCommonCoinWaitsForMatchingBit(t *testing.T) {
	t.Parallel()
	res, err := Run(Config{
		Partition:          model.Fig1Left(),
		Proposals:          unanimous(7, model.One),
		Algorithm:          CommonCoin,
		Seed:               1,
		MaxRounds:          10,
		CommonCoinOverride: fixedCommon(model.Zero, model.One),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.AllLiveDecided() {
		t.Fatalf("not all decided: %+v", res.Procs)
	}
	val, _, _ := res.Decided()
	if val != model.One {
		t.Errorf("decided %v, want 1 (agreement must stick to the majority value)", val)
	}
	for i, pr := range res.Procs {
		if pr.Round != 2 {
			t.Errorf("process %d decided at round %d, want 2", i, pr.Round)
		}
	}
}

// Even when the coin bit opposes a majority value, safety holds: the
// estimate locks on the majority value (line 8) and the opposite value can
// never be decided later.
func TestCommonCoinEstimateLocking(t *testing.T) {
	t.Parallel()
	// 5 processes: four propose 1, one proposes 0. Coin forever 0 would
	// block; alternate 0,0,1 so decision lands on a 1-bit round.
	props := []model.Value{model.One, model.One, model.One, model.One, model.Zero}
	res, err := Run(Config{
		Partition:          model.Singletons(5),
		Proposals:          props,
		Algorithm:          CommonCoin,
		Seed:               5,
		MaxRounds:          50,
		CommonCoinOverride: fixedCommon(model.Zero, model.Zero, model.One),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.AllLiveDecided() {
		t.Fatalf("not all decided: %+v", res.Procs)
	}
	if err := res.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	if err := res.CheckValidity(props); err != nil {
		t.Fatal(err)
	}
}

// Rigged local coins force convergence: on a split vote where every coin
// flip returns 1, the first coin round makes everyone's estimate 1 and the
// next round decides 1.
func TestLocalCoinRiggedConvergence(t *testing.T) {
	t.Parallel()
	res, err := Run(Config{
		Partition:         model.Singletons(4),
		Proposals:         alternating(4), // 0,1,0,1 — no initial majority
		Algorithm:         LocalCoin,
		Seed:              2,
		MaxRounds:         100,
		LocalCoinOverride: fixedLocal(model.One),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.AllLiveDecided() {
		t.Fatalf("not all decided: %+v", res.Procs)
	}
	if err := res.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	val, _, _ := res.Decided()
	if !val.IsBinary() {
		t.Errorf("decided %v, want binary", val)
	}
}

// A decision in the hybrid model must be reached on the value championed by
// a majority cluster: in Fig1Right, P[2] (4 of 7) proposes 0 unanimously,
// so supporters(0) ≥ 4 > n/2 at every process and the decision must be 0
// regardless of what the minority proposes.
func TestMajorityClusterDrivesDecision(t *testing.T) {
	t.Parallel()
	// p1 (P[1]) and p6,p7 (P[3]) propose 1; P[2]={p2..p5} proposes 0.
	props := []model.Value{model.One, model.Zero, model.Zero, model.Zero, model.Zero, model.One, model.One}
	for _, algo := range []Algorithm{LocalCoin, CommonCoin} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Partition: model.Fig1Right(),
				Proposals: props,
				Algorithm: algo,
				Seed:      9,
				MaxRounds: 200,
			}
			if algo == CommonCoin {
				// Give the coin both bits so a 0-round arrives quickly.
				cfg.CommonCoinOverride = fixedCommon(model.One, model.Zero)
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !res.AllLiveDecided() {
				t.Fatalf("not all decided: %+v", res.Procs)
			}
			val, _, _ := res.Decided()
			if val != model.Zero {
				t.Errorf("decided %v, want 0 (the majority cluster's value)", val)
			}
		})
	}
}
