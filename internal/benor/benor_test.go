package benor

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
		{N: 2, Proposals: []model.Value{model.One, model.Bot}},
		{N: 2, Proposals: unanimous(2, model.One), MaxRounds: -1},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: error = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestUnanimousDecidesRoundOne(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, v := range []model.Value{model.Zero, model.One} {
			n, v := n, v
			t.Run(fmt.Sprintf("n=%d/v=%v", n, v), func(t *testing.T) {
				t.Parallel()
				res := runLive(t, Config{N: n, Proposals: unanimous(n, v), Setup: sim.Setup{Seed: int64(n)}, MaxRounds: 50})
				if val, count, _ := outcome(res).Decided(); val != v.String() || count != n {
					t.Errorf("decided (%v, %d), want (%v, %d)", val, count, v, n)
				}
				if got := outcome(res).MaxDecisionRound(); got != 1 {
					t.Errorf("decision round = %d, want 1", got)
				}
			})
		}
	}
}

func TestSplitProposalsTerminate(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			runLive(t, Config{N: 5, Proposals: alternating(5), Setup: sim.Setup{Seed: seed}, MaxRounds: 10000})
		})
	}
}

// Ben-Or tolerates any minority of crashes.
func TestMinorityCrashTerminates(t *testing.T) {
	t.Parallel()
	sched, err := failures.CrashAllExcept(7, atStart, 3, 4, 5, 6) // 3 < n/2 crashes
	if err != nil {
		t.Fatal(err)
	}
	res := runLive(t, Config{N: 7, Proposals: unanimous(7, model.One), Setup: sim.Setup{Seed: 3, Crashes: sched}, MaxRounds: 5000})
	if got := outcome(res).CountStatus(sim.StatusFailed); got != 0 {
		t.Errorf("failed count = %d", got)
	}
}

// Ben-Or blocks (but stays safe) when half or more of the processes crash —
// the majority-of-correct requirement the hybrid model circumvents.
func TestMajorityCrashBlocks(t *testing.T) {
	t.Parallel()
	const n = 6
	sched, err := failures.CrashAllExcept(n, atStart, 3, 4, 5) // n/2 crashes
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{N: n, Proposals: unanimous(n, model.One), Setup: sim.Setup{Seed: 5, Crashes: sched}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, _, decided := outcome(res).Decided(); decided {
		t.Fatal("decided despite n/2 crashes")
	}
	for p := 3; p < n; p++ {
		if res.Procs[p].Status != sim.StatusBlocked {
			t.Errorf("survivor %d status = %v, want blocked", p, res.Procs[p].Status)
		}
	}
}

// Partial broadcast from a crashing process must not break safety.
func TestPartialBroadcastSafety(t *testing.T) {
	t.Parallel()
	sched := failures.NewSchedule(5)
	if err := sched.Set(0, failures.Crash{
		At:        failures.Point{Round: 1, Phase: 2, Stage: failures.StageMidBroadcast},
		DeliverTo: []model.ProcID{1},
	}); err != nil {
		t.Fatal(err)
	}
	runLive(t, Config{N: 5, Proposals: alternating(5), Setup: sim.Setup{Seed: 11, Crashes: sched}, MaxRounds: 10000})
}

// Rigged coins force post-split convergence within a couple of rounds.
func TestRiggedCoinConvergence(t *testing.T) {
	t.Parallel()
	runLive(t, Config{
		N:         4,
		Proposals: alternating(4),
		Setup:     sim.Setup{Seed: 1},
		MaxRounds: 100,
		LocalCoinOverride: func(model.ProcID) coin.Local {
			return coin.NewFixedLocal(model.Zero)
		},
	})
}

// With delays, cross-round buffering must keep the run safe and live.
func TestWithDelays(t *testing.T) {
	t.Parallel()
	runLive(t, Config{
		N:         5,
		Proposals: alternating(5),
		Setup: sim.Setup{
			Seed:       9,
			NetOptions: []netsim.Option{netsim.WithUniformDelay(0, 2*time.Millisecond)},
		},
		MaxRounds: 10000,
	})
}

// Timed (virtual-instant) crashes are honored by the virtual engine: the
// victim ends crashed, not decided or blocked, and the run stays safe.
func TestTimedCrashVirtual(t *testing.T) {
	t.Parallel()
	sched := failures.NewSchedule(5)
	// Strikes before any exchange can complete (MinDelay floors transit).
	if err := sched.SetTimed(0, 50*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	// 4 of 5 survive — a majority — so the survivors decide.
	res := runLive(t, Config{
		N:         5,
		Proposals: unanimous(5, model.One),
		Setup: sim.Setup{
			Seed:       13,
			Crashes:    sched,
			NetOptions: []netsim.Option{netsim.WithUniformDelay(200*time.Microsecond, time.Millisecond)},
		},
		MaxRounds: 10_000,
	})
	if res.Procs[0].Status != sim.StatusCrashed {
		t.Fatalf("victim = %+v, want crashed", res.Procs[0])
	}
}
