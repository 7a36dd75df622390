package shconsensus

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/sim"
)

// TestReplayBitReproducible pins the virtual-engine determinism contract
// for the shared-memory baseline: identical Configs yield identical
// Results — in particular, the same process deterministically wins the CAS.
func TestReplayBitReproducible(t *testing.T) {
	t.Parallel()
	sched, err := failures.CrashAllExcept(6,
		failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}, 2, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		N:         6,
		Proposals: []model.Value{model.One, model.Zero, model.Zero, model.One, model.One, model.Zero},
		Crashes:   sched,
	}
	res1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("Results diverged:\n  run1: %+v\n  run2: %+v", res1, res2)
	}
	// The first live process — ProcID 2, whose
	// Proposals[2] is 0 — wins the CAS, deterministically.
	if v, _, ok := res1.Decided(); !ok || v != model.Zero {
		t.Errorf("decided %v, want first live process's 0: %+v", v, res1.Procs)
	}
}

// TestSafetyAcrossSchedules: the protocol has no network and no delays —
// its schedule space is who proposes what and who crashes before
// proposing — so 32 seeds draw both. Every run must satisfy agreement,
// validity and wait-free termination, and the first live process's
// proposal must win the CAS.
func TestSafetyAcrossSchedules(t *testing.T) {
	t.Parallel()
	const n = 8
	for seed := uint64(0); seed < 32; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5c))
		props := make([]model.Value, n)
		for i := range props {
			props[i] = model.BitToValue(rng.Uint64())
		}
		sched, err := failures.GenRandom(rng, n, rng.IntN(n), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{N: n, Proposals: props, Crashes: sched})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.CheckAgreement(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if err := res.CheckValidity(props); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if !res.AllLiveDecided() {
			t.Errorf("seed %d: not all decided: %+v", seed, res.Procs)
		}
		for p, pr := range res.Procs {
			if pr.Status == sim.StatusDecided {
				if pr.Decision != props[p] {
					t.Errorf("seed %d: decided %v, want first live process p%d's %v", seed, pr.Decision, p+1, props[p])
				}
				break
			}
		}
	}
}
