package core

import (
	"testing"

	"allforone/internal/coin"
	"allforone/internal/model"
	"allforone/internal/protocol"
)

// riggedCommon returns Hybrid with its common coin rigged to a repeating
// bit table.
func riggedCommon(bits ...model.Value) Variant {
	v := Hybrid
	v.CommonCoinOverride = coin.NewFixedCommon(bits...)
	return v
}

// riggedLocal returns Hybrid with every process's local coin rigged to a
// repeating sequence.
func riggedLocal(seq ...model.Value) Variant {
	v := Hybrid
	v.LocalCoinOverride = func(model.ProcID) coin.Local { return coin.NewFixedLocal(seq...) }
	return v
}

// With a matching rigged coin, Algorithm 3 decides in round 1 under
// unanimity: the majority value equals the coin bit immediately.
func TestCommonCoinDecidesRoundOneWhenCoinMatches(t *testing.T) {
	t.Parallel()
	res, err := RunVariant(protocol.Scenario{
		Topology:  protocol.Topology{Partition: model.Fig1Right()},
		Workload:  protocol.Workload{Binary: unanimous(7, model.One)},
		Algorithm: AlgoCommonCoin,
		Seed:      1,
		Bounds:    protocol.Bounds{MaxRounds: 10},
	}, riggedCommon(model.One))
	if err != nil {
		t.Fatalf("RunVariant: %v", err)
	}
	if !outcome(res).AllLiveDecided() {
		t.Fatalf("not all decided: %+v", res.Procs)
	}
	val, _, _ := outcome(res).Decided()
	if val != model.One.String() {
		t.Errorf("decided %v, want 1", val)
	}
	if got := outcome(res).MaxDecisionRound(); got != 1 {
		t.Errorf("decision round = %d, want 1", got)
	}
}

// With the coin alternating 0,1 and unanimous 1-proposals, round 1 cannot
// decide (coin=0 ≠ majority value 1) but round 2 must (coin=1).
func TestCommonCoinWaitsForMatchingBit(t *testing.T) {
	t.Parallel()
	res, err := RunVariant(protocol.Scenario{
		Topology:  protocol.Topology{Partition: model.Fig1Left()},
		Workload:  protocol.Workload{Binary: unanimous(7, model.One)},
		Algorithm: AlgoCommonCoin,
		Seed:      1,
		Bounds:    protocol.Bounds{MaxRounds: 10},
	}, riggedCommon(model.Zero, model.One))
	if err != nil {
		t.Fatalf("RunVariant: %v", err)
	}
	if !outcome(res).AllLiveDecided() {
		t.Fatalf("not all decided: %+v", res.Procs)
	}
	val, _, _ := outcome(res).Decided()
	if val != model.One.String() {
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
	res, err := RunVariant(protocol.Scenario{
		Topology:  protocol.Topology{Partition: model.Singletons(5)},
		Workload:  protocol.Workload{Binary: props},
		Algorithm: AlgoCommonCoin,
		Seed:      5,
		Bounds:    protocol.Bounds{MaxRounds: 50},
	}, riggedCommon(model.Zero, model.Zero, model.One))
	if err != nil {
		t.Fatalf("RunVariant: %v", err)
	}
	if !outcome(res).AllLiveDecided() {
		t.Fatalf("not all decided: %+v", res.Procs)
	}
	if err := outcome(res).CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	if err := outcome(res).CheckValidity(rendered(props)); err != nil {
		t.Fatal(err)
	}
}

// Rigged local coins force convergence: on a split vote where every coin
// flip returns 1, the first coin round makes everyone's estimate 1 and the
// next round decides 1.
func TestLocalCoinRiggedConvergence(t *testing.T) {
	t.Parallel()
	res, err := RunVariant(protocol.Scenario{
		Topology:  protocol.Topology{Partition: model.Singletons(4)},
		Workload:  protocol.Workload{Binary: alternating(4)}, // 0,1,0,1 — no initial majority
		Algorithm: AlgoLocalCoin,
		Seed:      2,
		Bounds:    protocol.Bounds{MaxRounds: 100},
	}, riggedLocal(model.One))
	if err != nil {
		t.Fatalf("RunVariant: %v", err)
	}
	if !outcome(res).AllLiveDecided() {
		t.Fatalf("not all decided: %+v", res.Procs)
	}
	if err := outcome(res).CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	val, _, _ := outcome(res).Decided()
	if val != "0" && val != "1" {
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
	for _, algo := range algorithms {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			sc := protocol.Scenario{
				Topology:  protocol.Topology{Partition: model.Fig1Right()},
				Workload:  protocol.Workload{Binary: props},
				Algorithm: algo,
				Seed:      9,
				Bounds:    protocol.Bounds{MaxRounds: 200},
			}
			v := Hybrid
			if algo == AlgoCommonCoin {
				// Give the coin both bits so a 0-round arrives quickly.
				v = riggedCommon(model.One, model.Zero)
			}
			res, err := RunVariant(sc, v)
			if err != nil {
				t.Fatalf("RunVariant: %v", err)
			}
			if !outcome(res).AllLiveDecided() {
				t.Fatalf("not all decided: %+v", res.Procs)
			}
			val, _, _ := outcome(res).Decided()
			if val != model.Zero.String() {
				t.Errorf("decided %v, want 0 (the majority cluster's value)", val)
			}
		})
	}
}
