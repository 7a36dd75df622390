package mpcoin

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

// scenario is an mpcoin run of proposals on n = len(proposals) processes.
func scenario(proposals []model.Value, seed int64, maxRounds int) protocol.Scenario {
	return protocol.Scenario{
		Protocol: ProtocolName,
		Topology: protocol.Topology{N: len(proposals)},
		Workload: protocol.Workload{Binary: proposals},
		Seed:     seed,
		Bounds:   protocol.Bounds{MaxRounds: maxRounds},
	}
}

// run runs sc through the registry and returns mpcoin's raw result.
func run(t *testing.T, sc protocol.Scenario) *sim.Result {
	t.Helper()
	out, err := protocol.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out.Raw.(*sim.Result)
}

// runRigged runs sc on the package's variant with its common coin rigged
// to a repeating bit table, which no Scenario carries.
func runRigged(t *testing.T, sc protocol.Scenario, bits ...model.Value) *sim.Result {
	t.Helper()
	rigged := variant
	rigged.CommonCoinOverride = coin.NewFixedCommon(bits...)
	res, err := core.RunVariant(sc, rigged)
	if err != nil {
		t.Fatalf("RunVariant: %v", err)
	}
	return res
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

func TestUnanimousTerminatesQuickly(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 3, 5, 9} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			res := runLive(t, scenario(unanimous(n, model.One), int64(n)+100, 100))
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
			runLive(t, scenario(alternating(6), seed, 1000))
		})
	}
}

// Rigged coin: matching bit decides round 1; alternating bit decides round 2.
func TestRiggedCoinRounds(t *testing.T) {
	t.Parallel()
	const n = 5
	rigged := func(t *testing.T, props []model.Value, maxRounds int, bits ...model.Value) *sim.Result {
		return runRigged(t, protocol.Scenario{
			Workload: protocol.Workload{Binary: props},
			Seed:     1,
			Bounds:   protocol.Bounds{MaxRounds: maxRounds},
		}, bits...)
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
	sc := scenario(alternating(7), 21, 1000)
	sc.Faults = sched
	runLive(t, sc)
}

func TestMajorityCrashBlocksButSafe(t *testing.T) {
	t.Parallel()
	sched, err := failures.CrashAllExcept(4, atStart, 2, 3) // n/2 crashes
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario(unanimous(4, model.Zero), 2, 0)
	sc.Faults = sched
	res := run(t, sc)
	if _, _, decided := outcome(res).Decided(); decided {
		t.Fatal("decided despite n/2 crashes")
	}
}

func TestWithDelays(t *testing.T) {
	t.Parallel()
	sc := scenario(alternating(5), 4, 1000)
	sc.Profile = protocol.Uniform(0, 2*time.Millisecond)
	runLive(t, sc)
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
	proposals := unanimous(5, model.One)
	res := runRigged(t, protocol.Scenario{
		Workload: protocol.Workload{Binary: proposals},
		Seed:     6,
		Faults:   sched,
		Bounds:   protocol.Bounds{MaxRounds: 100},
	}, model.One)
	requireLive(t, res, proposals)
	if val, _, _ := outcome(res).Decided(); val != model.One.String() {
		t.Errorf("decided %v, want 1", val)
	}
}

// flippedCommon is a seeded common coin whose every bit is complemented.
type flippedCommon struct{ coin.Common }

func (c flippedCommon) Bit(r int) model.Value { return 1 - c.Common.Bit(r) }

// TestValueComplement is core's value-complement relation on the
// package's variant: complementing every proposal and every common-coin bit
// flips every decision and leaves the engine record and every count
// unchanged, crash-free and with p1 crashing mid-broadcast in round 1,
// under a 0–200 µs band.
func TestValueComplement(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(0x3c, 0x0))
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
		rigged.CommonCoinOverride = flippedCommon{coin.NewSplitMixCommon(uint64(seed) ^ variant.CoinSalt)}
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
