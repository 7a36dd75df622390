package mpcoin

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"allforone/internal/coin"
	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/sim"
)

func unanimous(n int, v model.Value) []model.Value {
	out := make([]model.Value, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func alternating(n int) []model.Value {
	out := make([]model.Value, n)
	for i := range out {
		out[i] = model.Value(int8(i % 2))
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	cases := []Config{
		{N: 0},
		{N: 3, Proposals: unanimous(2, model.One)},
		{N: 2, Proposals: []model.Value{model.One, model.Value(5)}},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: error = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestUnanimousTerminatesQuickly(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 3, 5, 9} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{
				N:         n,
				Proposals: unanimous(n, model.One),
				Seed:      int64(n) + 100,
				MaxRounds: 100,
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
		})
	}
}

func TestSplitProposalsSafeAndLive(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			const n = 6
			props := alternating(n)
			res, err := Run(Config{
				N:         n,
				Proposals: props,
				Seed:      seed,
				MaxRounds: 1000,
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
		})
	}
}

// Rigged coin: matching bit decides round 1; alternating bit decides round 2.
func TestRiggedCoinRounds(t *testing.T) {
	t.Parallel()
	const n = 5
	t.Run("match round 1", func(t *testing.T) {
		t.Parallel()
		res, err := Run(Config{
			N:                  n,
			Proposals:          unanimous(n, model.Zero),
			Seed:               1,
			MaxRounds:          10,
			CommonCoinOverride: coin.NewFixedCommon(model.Zero),
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got := res.MaxDecisionRound(); got != 1 {
			t.Errorf("decision round = %d, want 1", got)
		}
	})
	t.Run("mismatch delays to round 2", func(t *testing.T) {
		t.Parallel()
		res, err := Run(Config{
			N:                  n,
			Proposals:          unanimous(n, model.One),
			Seed:               1,
			MaxRounds:          10,
			CommonCoinOverride: coin.NewFixedCommon(model.Zero, model.One),
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !res.AllLiveDecided() {
			t.Fatalf("not all decided: %+v", res.Procs)
		}
		for i, pr := range res.Procs {
			if pr.Round != 2 {
				t.Errorf("process %d round = %d, want 2", i, pr.Round)
			}
		}
	})
	t.Run("never-matching coin blocks at cap", func(t *testing.T) {
		t.Parallel()
		res, err := Run(Config{
			N:                  n,
			Proposals:          unanimous(n, model.One),
			Seed:               1,
			MaxRounds:          4,
			CommonCoinOverride: coin.NewFixedCommon(model.Zero),
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		for i, pr := range res.Procs {
			if pr.Status != sim.StatusBlocked {
				t.Errorf("process %d status = %v, want blocked", i, pr.Status)
			}
		}
	})
}

func TestMinorityCrashTerminates(t *testing.T) {
	t.Parallel()
	const n = 7
	sched := failures.NewSchedule(n)
	for _, p := range []model.ProcID{1, 4, 6} {
		if err := sched.Set(p, failures.Crash{
			At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart},
		}); err != nil {
			t.Fatal(err)
		}
	}
	props := alternating(n)
	res, err := Run(Config{
		N:         n,
		Proposals: props,
		Seed:      21,
		MaxRounds: 1000,
		Crashes:   sched,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	if !res.AllLiveDecided() {
		t.Fatalf("not all live decided: %+v", res.Procs)
	}
}

func TestMajorityCrashBlocksButSafe(t *testing.T) {
	t.Parallel()
	const n = 4
	sched := failures.NewSchedule(n)
	for _, p := range []model.ProcID{0, 1} { // n/2
		if err := sched.Set(p, failures.Crash{
			At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart},
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(Config{
		N:         n,
		Proposals: unanimous(n, model.Zero),
		Seed:      2,
		Crashes:   sched,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, _, decided := res.Decided(); decided {
		t.Fatal("decided despite n/2 crashes")
	}
}

func TestWithDelays(t *testing.T) {
	t.Parallel()
	const n = 5
	props := alternating(n)
	res, err := Run(Config{
		N:         n,
		Proposals: props,
		Seed:      4,
		MaxRounds: 1000,
		MaxDelay:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	if !res.AllLiveDecided() {
		t.Fatalf("not all decided: %+v", res.Procs)
	}
}

// Decide-then-crash with partial DECIDE delivery: the recipient rebroadcast
// keeps everyone live and agreed.
func TestPartialDecideDelivery(t *testing.T) {
	t.Parallel()
	const n = 5
	sched := failures.NewSchedule(n)
	if err := sched.Set(0, failures.Crash{
		At:        failures.Point{Round: 1, Phase: 1, Stage: failures.StageBeforeDecide},
		DeliverTo: []model.ProcID{3},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		N:                  n,
		Proposals:          unanimous(n, model.One),
		Seed:               6,
		MaxRounds:          100,
		Crashes:            sched,
		CommonCoinOverride: coin.NewFixedCommon(model.One),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	if !res.AllLiveDecided() {
		t.Fatalf("not all live decided: %+v", res.Procs)
	}
	val, _, _ := res.Decided()
	if val != model.One {
		t.Errorf("decided %v, want 1", val)
	}
}
