package mm

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

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

// scenario is an m&m run of proposals on g.
func scenario(g *Graph, proposals []model.Value, seed int64, maxRounds int) protocol.Scenario {
	return protocol.Scenario{
		Protocol: ProtocolName,
		Topology: protocol.Topology{N: g.N(), MMEdges: g.EdgeList()},
		Workload: protocol.Workload{Binary: proposals},
		Seed:     seed,
		Bounds:   protocol.Bounds{MaxRounds: maxRounds},
	}
}

// run runs sc through the registry and returns the m&m raw result.
func run(t *testing.T, sc protocol.Scenario) *sim.Result {
	t.Helper()
	out, err := protocol.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out.Raw.(*sim.Result)
}

// runLive runs sc and fails unless the run is safe — agreement, validity —
// and every live process decided.
func runLive(t *testing.T, sc protocol.Scenario) *sim.Result {
	t.Helper()
	res := run(t, sc)
	out := outcome(res)
	if err := errors.Join(out.CheckAgreement(), out.CheckValidity(rendered(sc.Workload.Binary))); err != nil {
		t.Fatal(err)
	}
	if !out.AllLiveDecided() {
		t.Fatalf("not all live decided: %+v", res.Procs)
	}
	return res
}

// oneZero alternates proposals from 1 over Fig2's five processes.
var oneZero = []model.Value{model.One, model.Zero, model.One, model.Zero, model.One}

// atStart is the step point of a crash before the process's first step.
var atStart = failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}

// TestRunConfigValidation: a self-loop is ErrBadGraph as well as
// ErrBadScenario. The registry suite holds mm, as every TopologyGraph
// protocol, to refusing a missing or self-looped edge list.
func TestRunConfigValidation(t *testing.T) {
	t.Parallel()
	sc := scenario(Fig2(), unanimous(5, model.One), 0, 0)
	sc.Topology.MMEdges = [][2]int{{0, 0}}
	if _, err := protocol.Run(sc); !errors.Is(err, protocol.ErrBadScenario) || !errors.Is(err, ErrBadGraph) {
		t.Errorf("self-loop: error = %v, want ErrBadScenario and ErrBadGraph", err)
	}
}

func TestUnanimousDecides(t *testing.T) {
	t.Parallel()
	graphs := map[string]*Graph{"fig2": Fig2()}
	for name, build := range map[string]func(int) (*Graph, error){"complete": Complete, "ring": Ring, "star": Star} {
		g, err := build(5)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = g
	}
	for name, g := range graphs {
		name, g := name, g
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := runLive(t, scenario(g, unanimous(g.N(), model.One), 7, 100))
			if val, _, _ := outcome(res).Decided(); val != model.One.String() {
				t.Errorf("decided %v, want 1", val)
			}
			if got := outcome(res).MaxDecisionRound(); got != 1 {
				t.Errorf("decision round = %d, want 1", got)
			}
		})
	}
}

func TestSplitProposalsSafeAndLive(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			runLive(t, scenario(Fig2(), alternating(5), seed, 10000))
		})
	}
}

// The §III-C cost claim, measured: in a crash-free unanimous run (1 round,
// 2 phases) every process invokes α_i+1 objects per phase, so the total is
// 2·Σ(α_i+1) = 2·(2|E|+n), and all n centered memories are touched.
func TestMeasuredInvocationCounts(t *testing.T) {
	t.Parallel()
	g := Fig2()
	res := run(t, scenario(g, unanimous(5, model.Zero), 3, 10))
	if got := outcome(res).MaxDecisionRound(); got != 1 {
		t.Fatalf("decision round = %d, want 1 (unanimous)", got)
	}
	want := int64(2 * (2*g.Edges() + g.N())) // 2 phases × Σ(α_i+1) = 2·15 = 30
	if res.Metrics.ConsInvocations != want {
		t.Errorf("ConsInvocations = %d, want %d", res.Metrics.ConsInvocations, want)
	}
	// Every centered memory is touched: allocations = 2 slots each.
	for i, a := range res.ConsAllocations {
		if a != 2 {
			t.Errorf("memory %d allocations = %d, want 2 (one per phase)", i, a)
		}
	}
	// Per-memory invocations = 2 × |S_i| (each domain member proposes once
	// per phase).
	for i := 0; i < g.N(); i++ {
		want := int64(2 * (g.Degree(model.ProcID(i)) + 1))
		if res.ConsInvocations[i] != want {
			t.Errorf("memory %d invocations = %d, want %d", i, res.ConsInvocations[i], want)
		}
	}
}

func TestCrashToleranceMinority(t *testing.T) {
	t.Parallel()
	sched, err := failures.CrashAllExcept(5, atStart, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario(Fig2(), alternating(5), 13, 10000)
	sc.Faults = sched
	runLive(t, sc)
}

// The m&m model cannot beat the classical majority requirement: unlike the
// hybrid model's majority cluster, crashing 3 of 5 processes of Fig2 blocks
// the survivors (but safely), and the run ends at quiescence.
func TestNoOneForAllProperty(t *testing.T) {
	t.Parallel()
	// Crash p3, p4, p5 — the dense part of the graph.
	sched, err := failures.CrashAllExcept(5, atStart, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario(Fig2(), unanimous(5, model.One), 2, 0)
	sc.Faults = sched
	res := run(t, sc)
	if _, _, decided := outcome(res).Decided(); decided {
		t.Fatal("m&m run decided despite majority crash — the model has no one-for-all closure")
	}
	if !res.Quiesced {
		t.Errorf("Quiesced = false, want true: %+v", res)
	}
	for _, p := range []model.ProcID{0, 1} {
		if res.Procs[p].Status != sim.StatusBlocked {
			t.Errorf("survivor %v status = %v, want blocked", p, res.Procs[p].Status)
		}
	}
}

// TestReplayBitReproducible pins replay of cells the registry suite's mm row
// (a ring) lacks: the appendix graph Fig2 under a 0–2 ms band, with p2
// crashing mid-broadcast and p5 at 3 ms, over three seeds.
func TestReplayBitReproducible(t *testing.T) {
	t.Parallel()
	config := func(seed int64) protocol.Scenario {
		sched := failures.NewSchedule(5)
		err := errors.Join(
			sched.Set(1, failures.Crash{At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageMidBroadcast}}),
			sched.SetTimed(4, 3*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		sc := scenario(Fig2(), oneZero, seed, 10_000)
		sc.Faults, sc.Profile = sched, protocol.Uniform(0, 2*time.Millisecond)
		return sc
	}
	for _, seed := range []int64{1, 42, 917} {
		res1, res2 := run(t, config(seed)), run(t, config(seed))
		if !reflect.DeepEqual(res1, res2) || res1.Steps == 0 {
			t.Errorf("seed %d: Results diverged or took no step:\n  run1: %+v\n  run2: %+v", seed, res1, res2)
		}
	}
}

// TestVirtualQuiescenceBlocks pins the deterministic blocked verdict: with
// a crashed majority no survivor can collect enough reports, and the
// virtual engine must flag quiescence rather than wait out a timeout.
func TestVirtualQuiescenceBlocks(t *testing.T) {
	t.Parallel()
	sched, err := failures.CrashAllExcept(5, atStart, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	sc := scenario(Fig2(), unanimous(5, model.One), 9, 0)
	sc.Faults = sched
	res := run(t, sc)
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("blocked verdict took %v of real time", wall)
	}
	if !res.Quiesced {
		t.Errorf("Quiesced = false, want true: %+v", res)
	}
	if got := outcome(res).CountStatus(sim.StatusBlocked); got != 2 {
		t.Errorf("blocked = %d, want 2: %+v", got, res.Procs)
	}
}
