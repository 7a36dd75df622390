package benor

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"allforone/internal/coin"
	"allforone/internal/core"
	"allforone/internal/failures"
	"allforone/internal/model"
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

// scenario is a Ben-Or run of proposals on n = len(proposals) processes.
func scenario(proposals []model.Value, seed int64, maxRounds int) protocol.Scenario {
	return protocol.Scenario{
		Protocol: ProtocolName,
		Topology: protocol.Topology{N: len(proposals)},
		Workload: protocol.Workload{Binary: proposals},
		Seed:     seed,
		Bounds:   protocol.Bounds{MaxRounds: maxRounds},
	}
}

// run runs sc through the registry and returns Ben-Or's raw result.
func run(t *testing.T, sc protocol.Scenario) *sim.Result {
	t.Helper()
	out, err := protocol.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out.Raw.(*sim.Result)
}

// requireLive fails unless res is safe — agreement, validity — and every
// live process decided.
func requireLive(t *testing.T, res *sim.Result, proposals []model.Value) {
	t.Helper()
	out := outcome(res)
	if err := errors.Join(out.CheckAgreement(), out.CheckValidity(rendered(proposals))); err != nil {
		t.Fatal(err)
	}
	if !out.AllLiveDecided() {
		t.Fatalf("not all live decided: %+v", res.Procs)
	}
}

// runLive runs sc and fails unless the run is safe and every live process
// decided.
func runLive(t *testing.T, sc protocol.Scenario) *sim.Result {
	t.Helper()
	res := run(t, sc)
	requireLive(t, res, sc.Workload.Binary)
	return res
}

// atStart is the step point of a crash before the process's first step.
var atStart = failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}

func TestUnanimousDecidesRoundOne(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, v := range []model.Value{model.Zero, model.One} {
			n, v := n, v
			t.Run(fmt.Sprintf("n=%d/v=%v", n, v), func(t *testing.T) {
				t.Parallel()
				res := runLive(t, scenario(unanimous(n, v), int64(n), 50))
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
			runLive(t, scenario(alternating(5), seed, 10000))
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
	sc := scenario(unanimous(7, model.One), 3, 5000)
	sc.Faults = sched
	res := runLive(t, sc)
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
	sc := scenario(unanimous(n, model.One), 5, 0)
	sc.Faults = sched
	res := run(t, sc)
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
	sc := scenario(alternating(5), 11, 10000)
	sc.Faults = sched
	runLive(t, sc)
}

// Rigged coins force post-split convergence within a couple of rounds.
func TestRiggedCoinConvergence(t *testing.T) {
	t.Parallel()
	proposals := alternating(4)
	rigged := variant
	rigged.LocalCoinOverride = func(model.ProcID) coin.Local { return coin.NewFixedLocal(model.Zero) }
	res, err := core.RunVariant(protocol.Scenario{
		Workload: protocol.Workload{Binary: proposals},
		Seed:     1,
		Bounds:   protocol.Bounds{MaxRounds: 100},
	}, rigged)
	if err != nil {
		t.Fatalf("RunVariant: %v", err)
	}
	requireLive(t, res, proposals)
}

// With delays, cross-round buffering must keep the run safe and live.
func TestWithDelays(t *testing.T) {
	t.Parallel()
	sc := scenario(alternating(5), 9, 10000)
	sc.Profile = protocol.Uniform(0, 2*time.Millisecond)
	runLive(t, sc)
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
	sc := scenario(unanimous(5, model.One), 13, 10_000)
	sc.Faults, sc.Profile = sched, protocol.Uniform(200*time.Microsecond, time.Millisecond)
	res := runLive(t, sc)
	if res.Procs[0].Status != sim.StatusCrashed {
		t.Fatalf("victim = %+v, want crashed", res.Procs[0])
	}
}

// flippedLocal is a seeded local coin whose every draw is complemented.
type flippedLocal struct{ coin.PRNGLocal }

func (c *flippedLocal) Flip() model.Value { return 1 - c.PRNGLocal.Flip() }

// TestValueComplement is core's value-complement relation on Ben-Or's
// variant: complementing every proposal and every local-coin draw flips
// every decision and leaves the engine record and every count unchanged,
// crash-free and with p1 crashing mid-broadcast in round 1, under a
// 0–200 µs band.
func TestValueComplement(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(0xbe, 0x0))
	for seed := int64(1); seed <= 40; seed++ {
		sc := scenario(make([]model.Value, 7), seed, 10_000)
		sc.Profile = protocol.Uniform(0, 200*time.Microsecond)
		flip := sc
		flip.Workload.Binary = make([]model.Value, 7)
		for i := range sc.Workload.Binary {
			sc.Workload.Binary[i] = model.BitToValue(rng.Uint64())
			flip.Workload.Binary[i] = 1 - sc.Workload.Binary[i]
		}
		if seed%2 == 0 {
			sc.Faults = failures.NewSchedule(7)
			if err := sc.Faults.Set(0, failures.Crash{At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageMidBroadcast}}); err != nil {
				t.Fatal(err)
			}
			flip.Faults = sc.Faults
		}
		rigged := variant
		rigged.LocalCoinOverride = func(p model.ProcID) coin.Local {
			return &flippedLocal{coin.NewPRNGLocal(coin.DeriveLocalSeed(seed, p))}
		}
		want := run(t, sc)
		got, err := core.RunVariant(flip, rigged)
		if err != nil {
			t.Fatalf("seed %d, complemented: %v", seed, err)
		}
		for i, w := range want.Procs {
			if w.Status == sim.StatusDecided {
				w.Decision = 1 - w.Decision
			}
			if got.Procs[i] != w {
				t.Fatalf("seed %d: process %d ends %+v on the complement, want %+v", seed, i, got.Procs[i], w)
			}
		}
		if _, _, ok := outcome(want).Decided(); !ok || got.Engine != want.Engine || got.Metrics != want.Metrics {
			t.Fatalf("seed %d: the complement ran differently or nobody decided:\n  got:  %+v\n  want: %+v", seed, got, want)
		}
	}
}
