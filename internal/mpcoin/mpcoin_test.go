package mpcoin

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"allforone/internal/coin"
	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/protocol"
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

// outcome folds res into the uniform Outcome whose checks these tests read.
func outcome(res *sim.Result) *protocol.Outcome { return protocol.BinaryOutcome(ProtocolName, res) }

// rendered returns vs as an Outcome renders decisions.
func rendered(vs []model.Value) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// runLive runs cfg and fails unless the run is safe — agreement, validity —
// and every live process decided.
func runLive(t *testing.T, cfg Config) *sim.Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := outcome(res)
	if err := errors.Join(out.CheckAgreement(), out.CheckValidity(rendered(cfg.Proposals))); err != nil {
		t.Fatal(err)
	}
	if !out.AllLiveDecided() {
		t.Fatalf("not all live decided: %+v", res.Procs)
	}
	return res
}

// atStart is the step point of a crash before the process's first step.
var atStart = failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	cases := []Config{
		{N: 0},
		{N: 3, Proposals: unanimous(2, model.One)},
		{N: 2, Proposals: []model.Value{model.One, model.Value(5)}},
		{N: 2, Proposals: unanimous(2, model.One), MaxRounds: -1},
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
			res := runLive(t, Config{N: n, Proposals: unanimous(n, model.One), Setup: sim.Setup{Seed: int64(n) + 100}, MaxRounds: 100})
			if val, _, _ := outcome(res).Decided(); val != model.One.String() {
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
			runLive(t, Config{N: 6, Proposals: alternating(6), Setup: sim.Setup{Seed: seed}, MaxRounds: 1000})
		})
	}
}

// Rigged coin: matching bit decides round 1; alternating bit decides round 2.
func TestRiggedCoinRounds(t *testing.T) {
	t.Parallel()
	const n = 5
	rigged := func(t *testing.T, props []model.Value, maxRounds int, bits ...model.Value) *sim.Result {
		res, err := Run(Config{
			N:                  n,
			Proposals:          props,
			Setup:              sim.Setup{Seed: 1},
			MaxRounds:          maxRounds,
			CommonCoinOverride: coin.NewFixedCommon(bits...),
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	t.Run("match round 1", func(t *testing.T) {
		t.Parallel()
		if got := outcome(rigged(t, unanimous(n, model.Zero), 10, model.Zero)).MaxDecisionRound(); got != 1 {
			t.Errorf("decision round = %d, want 1", got)
		}
	})
	t.Run("mismatch delays to round 2", func(t *testing.T) {
		t.Parallel()
		res := rigged(t, unanimous(n, model.One), 10, model.Zero, model.One)
		if !outcome(res).AllLiveDecided() {
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
		for i, pr := range rigged(t, unanimous(n, model.One), 4, model.Zero).Procs {
			if pr.Status != sim.StatusBlocked {
				t.Errorf("process %d status = %v, want blocked", i, pr.Status)
			}
		}
	})
}

func TestMinorityCrashTerminates(t *testing.T) {
	t.Parallel()
	sched, err := failures.CrashAllExcept(7, atStart, 0, 2, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	runLive(t, Config{N: 7, Proposals: alternating(7), Setup: sim.Setup{Seed: 21, Crashes: sched}, MaxRounds: 1000})
}

func TestMajorityCrashBlocksButSafe(t *testing.T) {
	t.Parallel()
	sched, err := failures.CrashAllExcept(4, atStart, 2, 3) // n/2 crashes
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{N: 4, Proposals: unanimous(4, model.Zero), Setup: sim.Setup{Seed: 2, Crashes: sched}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, _, decided := outcome(res).Decided(); decided {
		t.Fatal("decided despite n/2 crashes")
	}
}

func TestWithDelays(t *testing.T) {
	t.Parallel()
	runLive(t, Config{
		N:         5,
		Proposals: alternating(5),
		Setup: sim.Setup{
			Seed:       4,
			NetOptions: []netsim.Option{netsim.WithUniformDelay(0, 2*time.Millisecond)},
		},
		MaxRounds: 1000,
	})
}

// Decide-then-crash with partial DECIDE delivery: the recipient rebroadcast
// keeps everyone live and agreed.
func TestPartialDecideDelivery(t *testing.T) {
	t.Parallel()
	sched := failures.NewSchedule(5)
	if err := sched.Set(0, failures.Crash{
		At:        failures.Point{Round: 1, Phase: 1, Stage: failures.StageBeforeDecide},
		DeliverTo: []model.ProcID{3},
	}); err != nil {
		t.Fatal(err)
	}
	res := runLive(t, Config{
		N:                  5,
		Proposals:          unanimous(5, model.One),
		Setup:              sim.Setup{Seed: 6, Crashes: sched},
		MaxRounds:          100,
		CommonCoinOverride: coin.NewFixedCommon(model.One),
	})
	if val, _, _ := outcome(res).Decided(); val != model.One.String() {
		t.Errorf("decided %v, want 1", val)
	}
}
