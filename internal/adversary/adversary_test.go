package adversary_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"allforone/internal/adversary"
	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/overlay"
	"allforone/internal/protocol"
	_ "allforone/internal/protocols"
	"allforone/internal/register"
	"allforone/internal/sim"
	"allforone/internal/trace"
)

// searchBase is the acceptance-criterion base scenario: the hybrid
// protocol at n=8, three clusters, a timed minority crash, traces on.
func searchBase(t *testing.T) protocol.Scenario {
	t.Helper()
	part, err := model.Blocks(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	binary := make([]model.Value, 8)
	for i := range binary {
		binary[i] = model.Value(int8(i % 2))
	}
	faults := failures.NewSchedule(8)
	if err := faults.SetTimed(7, 300*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	return protocol.Scenario{
		Protocol: "hybrid",
		Topology: protocol.Topology{Partition: part},
		Workload: protocol.Workload{Binary: binary},
		Faults:   faults,
		Seed:     1,
		Bounds:   protocol.Bounds{MaxRounds: 10_000},
		Trace:    trace.New(),
	}
}

// TestSearchHybridWorstReplaysBitForBit is the acceptance criterion: a
// 500-probe search over the hybrid protocol at n=8 must emit a worst-found
// schedule whose Scenario, re-run under the virtual engine, reproduces the
// identical Outcome and trace.
func TestSearchHybridWorstReplaysBitForBit(t *testing.T) {
	t.Parallel()
	rep, err := adversary.Search(adversary.Config{
		Base:   searchBase(t),
		Budget: 500,
		Seed:   42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probes != 500 {
		t.Fatalf("Probes = %d, want 500", rep.Probes)
	}
	if rep.Violations != 0 {
		t.Fatalf("search claims %d safety violations in a correct protocol: %+v", rep.Violations, rep.Findings)
	}
	if rep.Undecided != 0 {
		// The crash set (one process of eight) keeps the liveness
		// condition intact under every mutation, so no schedule may
		// block the run.
		t.Fatalf("search found %d undecided probes despite a live majority cluster", rep.Undecided)
	}
	w := rep.Worst
	if w == nil || w.Outcome == nil {
		t.Fatal("no worst finding")
	}
	if w.Verdict != adversary.VerdictDecided {
		t.Fatalf("worst verdict = %v, want decided", w.Verdict)
	}
	if w.Score <= 0 || w.Score != float64(w.Outcome.Steps) {
		t.Fatalf("worst score = %v, steps = %d", w.Score, w.Outcome.Steps)
	}

	// The emitted counterexample must reproduce bit-for-bit: identical
	// Outcome (every field, including clock and step counts) and an
	// identical trace.
	again, tr, err := w.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !reflect.DeepEqual(w.Outcome, again) {
		t.Fatalf("replay diverged:\n  search: %+v\n  replay: %+v", w.Outcome, again)
	}
	if tr == nil || w.Scenario.Trace == nil {
		t.Fatal("trace lost across replay")
	}
	if !reflect.DeepEqual(w.Scenario.Trace.Events(), tr.Events()) {
		t.Fatalf("replay trace diverged: %d vs %d events", w.Scenario.Trace.Len(), tr.Len())
	}
}

// TestSearchDeterministicAcrossParallelism: the search result is a pure
// function of its Config — the worker-pool size must not change it.
func TestSearchDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	run := func(parallelism int) *adversary.Report {
		rep, err := adversary.Search(adversary.Config{
			Base:        searchBase(t),
			Budget:      120,
			Batch:       30,
			Seed:        7,
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(1), run(8)
	if a.Worst.Probe != b.Worst.Probe || a.Worst.Score != b.Worst.Score {
		t.Fatalf("worst differs across parallelism: probe %d score %v vs probe %d score %v",
			a.Worst.Probe, a.Worst.Score, b.Worst.Probe, b.Worst.Score)
	}
	if !reflect.DeepEqual(a.Worst.Outcome, b.Worst.Outcome) {
		t.Fatal("worst outcome differs across parallelism")
	}
	if a.Decided != b.Decided || a.BoundedOut != b.BoundedOut || a.Undecided != b.Undecided {
		t.Fatalf("verdict counts differ: %+v vs %+v", a, b)
	}
}

// TestBoundedOutDistinctFromUndecided is the regression test for the
// bounded-out conflation fix: a probe cut short at MaxSteps or
// MaxVirtualTime must classify as VerdictBoundedOut, while a genuinely
// blocked run (liveness condition broken) classifies as VerdictUndecided.
func TestBoundedOutDistinctFromUndecided(t *testing.T) {
	t.Parallel()
	base := searchBase(t)

	stepsOut := base
	stepsOut.Trace = nil
	// Low enough to interrupt the run even under the batched fanout path,
	// where one broadcast is a single scheduler event.
	stepsOut.Bounds.MaxSteps = 5
	out, err := protocol.Run(stepsOut)
	if err != nil {
		t.Fatal(err)
	}
	if !out.StepsExceeded || !out.BoundedOut() {
		t.Fatalf("MaxSteps run: StepsExceeded=%v DeadlineExceeded=%v, want steps bound reported", out.StepsExceeded, out.DeadlineExceeded)
	}
	if out.Quiesced {
		t.Fatal("MaxSteps run reported quiescence")
	}
	if v, _ := adversary.Classify(stepsOut, out, nil); v != adversary.VerdictBoundedOut {
		t.Fatalf("MaxSteps verdict = %v, want bounded-out", v)
	}

	deadlineOut := base
	deadlineOut.Trace = nil
	deadlineOut.Profile = protocol.Uniform(50*time.Microsecond, 200*time.Microsecond)
	deadlineOut.Bounds.MaxVirtualTime = 20 * time.Microsecond
	out, err = protocol.Run(deadlineOut)
	if err != nil {
		t.Fatal(err)
	}
	if !out.DeadlineExceeded || !out.BoundedOut() {
		t.Fatalf("MaxVirtualTime run: DeadlineExceeded=%v StepsExceeded=%v", out.DeadlineExceeded, out.StepsExceeded)
	}
	if v, _ := adversary.Classify(deadlineOut, out, nil); v != adversary.VerdictBoundedOut {
		t.Fatalf("MaxVirtualTime verdict = %v, want bounded-out", v)
	}

	// Genuine non-decision: Ben-Or at n=3 with two processes crashed from
	// the start can never assemble a majority — the run quiesces.
	blocked := failures.NewSchedule(3)
	for _, p := range []model.ProcID{0, 1} {
		if err := blocked.SetTimed(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	blockedSc := protocol.Scenario{
		Protocol: "benor",
		Topology: protocol.Topology{N: 3},
		Workload: protocol.Workload{Binary: []model.Value{model.Zero, model.One, model.One}},
		Faults:   blocked,
		Seed:     5,
	}
	out, err = protocol.Run(blockedSc)
	if err != nil {
		t.Fatal(err)
	}
	if out.BoundedOut() {
		t.Fatalf("blocked run misreported as bounded-out: %+v", out)
	}
	if !out.Quiesced {
		t.Fatalf("blocked run did not quiesce: %+v", out)
	}
	if v, _ := adversary.Classify(blockedSc, out, nil); v != adversary.VerdictUndecided {
		t.Fatalf("blocked verdict = %v, want undecided", v)
	}
}

// riggedName is a registry entry planted for the falsifier test below: it
// violates agreement on a sparse set of seeds, which the search must find
// and report as a violation finding.
const riggedName = "adv-rigged"

func init() {
	protocol.MustRegister(protocol.Protocol{Info: protocol.Info{
		Name:        riggedName,
		Description: "test-only protocol violating agreement on sparse seeds",
		Proposals:   protocol.ProposalsBinary,
	}, Run: func(sc protocol.Scenario) (*protocol.Outcome, error) {
		n, err := sc.Topology.Procs()
		if err != nil {
			return nil, err
		}
		out := &protocol.Outcome{Protocol: riggedName, Procs: make([]protocol.ProcOutcome, n)}
		for i := range out.Procs {
			out.Procs[i] = protocol.ProcOutcome{Status: sim.StatusDecided, Decision: "1", Round: 1}
		}
		if sc.Seed%41 == 0 {
			out.Procs[n-1].Decision = "0" // the planted agreement violation
		}
		return out, nil
	}})
}

// TestSearchFindsPlantedViolation: seed enumeration over a protocol rigged
// to disagree on 1-in-41 seeds must surface a violation finding, and the
// finding must replay to the same broken outcome.
func TestSearchFindsPlantedViolation(t *testing.T) {
	t.Parallel()
	rep, err := adversary.Search(adversary.Config{
		Base: protocol.Scenario{
			Protocol: riggedName,
			Topology: protocol.Topology{N: 4},
			Workload: protocol.Workload{Binary: []model.Value{model.Zero, model.One, model.Zero, model.One}},
			Seed:     1,
		},
		Strategy: boundedSeeds{},
		Budget:   300,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 {
		t.Fatalf("planted violation not found in %d probes", rep.Probes)
	}
	if rep.Worst.Verdict != adversary.VerdictViolation {
		t.Fatalf("worst verdict = %v, want violation", rep.Worst.Verdict)
	}
	if rep.Worst.Scenario.Seed%41 != 0 {
		t.Fatalf("violation scenario seed = %d, not divisible by 41", rep.Worst.Scenario.Seed)
	}
	again, _, err := rep.Worst.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if v, _ := adversary.Classify(rep.Worst.Scenario, again, nil); v != adversary.VerdictViolation {
		t.Fatalf("replayed counterexample is %v, not a violation", v)
	}
	if len(rep.Findings) == 0 || rep.Findings[0].Verdict != adversary.VerdictViolation {
		t.Fatalf("violation not retained in Findings: %+v", rep.Findings)
	}
}

// boundedSeeds draws seeds from a small range so the sparse planted
// violation is reachable within a small budget.
type boundedSeeds struct{}

func (boundedSeeds) Name() string { return "bounded-seeds" }
func (boundedSeeds) Mutate(rng *rand.Rand, sc protocol.Scenario) (protocol.Scenario, error) {
	sc.Seed = 1 + int64(rng.IntN(2000))
	return sc, nil
}

// TestCrashJitterPreservesCrashSet: jitter may move WHEN crashes strike,
// never WHO crashes — the invariant that keeps the liveness condition of
// the base scenario intact across mutations.
func TestCrashJitterPreservesCrashSet(t *testing.T) {
	t.Parallel()
	sched := failures.NewSchedule(6)
	if err := sched.SetTimed(1, 400*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := sched.SetTimed(4, 100*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := sched.Set(2, failures.Crash{At: failures.Point{Round: 2, Phase: 1, Stage: failures.StageMidBroadcast}}); err != nil {
		t.Fatal(err)
	}
	base := protocol.Scenario{
		Protocol: "benor",
		Topology: protocol.Topology{N: 6},
		Faults:   sched,
	}
	strat := adversary.CrashJitter(200 * time.Microsecond)
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 50; trial++ {
		mut, err := strat.Mutate(rng, base)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mut.Faults.Crashed().Members(), sched.Crashed().Members(); !reflect.DeepEqual(got, want) {
			t.Fatalf("crash set changed: %v vs %v", got, want)
		}
		plan, ok := mut.Faults.Plan(2)
		if !ok || plan.At.Round != 2 || plan.At.Stage != failures.StageMidBroadcast {
			t.Fatalf("step-point plan lost: %+v ok=%v", plan, ok)
		}
		for _, tc := range mut.Faults.Timed() {
			orig, _ := sched.TimedPlan(tc.P)
			lo := orig - 200*time.Microsecond
			if lo < 0 {
				lo = 0
			}
			if tc.At < lo || tc.At > orig+200*time.Microsecond {
				t.Fatalf("p%d instant %v outside jitter window of %v", tc.P, tc.At, orig)
			}
		}
	}
}

// TestSkewMutationStaysCompilable: every matrix the skew strategy emits
// must compile for the scenario's topology, whatever the incumbent profile
// was.
func TestSkewMutationStaysCompilable(t *testing.T) {
	t.Parallel()
	base := searchBase(t)
	base.Trace = nil
	strat := adversary.SkewMutation(150*time.Microsecond, 0, 10)
	rng := rand.New(rand.NewPCG(2, 3))
	sc := base
	for trial := 0; trial < 40; trial++ {
		var err error
		sc, err = strat.Mutate(rng, sc)
		if err != nil {
			t.Fatal(err)
		}
		entries, ok := protocol.SkewMatrixEntries(sc.Profile)
		if !ok {
			t.Fatalf("trial %d: profile is %T, want skew matrix", trial, sc.Profile)
		}
		if len(entries) != 8 {
			t.Fatalf("trial %d: matrix side %d, want 8", trial, len(entries))
		}
		if _, err := sc.Profile.Compile(8, base.Topology.Partition); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestSearchRejectsBadConfigs covers the fatal-error paths.
func TestSearchRejectsBadConfigs(t *testing.T) {
	t.Parallel()
	if _, err := adversary.Search(adversary.Config{Base: searchBase(t)}); err == nil {
		t.Error("zero budget accepted")
	}
	bad := searchBase(t)
	bad.Protocol = "paxos"
	if _, err := adversary.Search(adversary.Config{Base: bad, Budget: 4}); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// TestParseHelpers pins the CLI-facing name resolvers.
func TestParseHelpers(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"rounds", "steps", "vtime"} {
		obj, err := adversary.ParseObjective(name)
		if err != nil || obj.Name() != name {
			t.Errorf("ParseObjective(%q) = %v, %v", name, obj, err)
		}
	}
	if _, err := adversary.ParseObjective("entropy"); err == nil {
		t.Error("bad objective accepted")
	}
	for _, name := range []string{"seed", "skew", "crash", "combined"} {
		st, err := adversary.ParseStrategy(name, 0)
		if err != nil || st == nil {
			t.Errorf("ParseStrategy(%q): %v", name, err)
		}
	}
	if _, err := adversary.ParseStrategy("chaos-monkey", 0); err == nil {
		t.Error("bad strategy accepted")
	}
	if got := fmt.Sprint(adversary.VerdictBoundedOut, adversary.VerdictDecided, adversary.VerdictUndecided, adversary.VerdictViolation); got != "bounded-out decided undecided violation" {
		t.Errorf("verdict names = %q", got)
	}
}

// linRiggedName is a registry entry planted for the linearizability
// falsifier test: its outcomes carry a register history that exhibits a
// new-old inversion on a sparse set of seeds and is sequentially
// explainable otherwise.
const linRiggedName = "adv-lin-rigged"

func init() {
	protocol.MustRegister(protocol.Protocol{Info: protocol.Info{
		Name:        linRiggedName,
		Description: "test-only register protocol with seeded new-old inversions",
		Proposals:   protocol.ProposalsScripts,
	}, Run: func(sc protocol.Scenario) (*protocol.Outcome, error) {
		us := func(k int) time.Duration { return time.Duration(k) * time.Microsecond }
		res := &register.Result{Procs: make([]register.ProcResult, 3)}
		res.Procs[0].Status = sim.StatusDecided
		res.Procs[0].Ops = []register.OpResult{
			{Kind: register.OpWrite, Val: "a", OK: true, Start: us(0), End: us(10)},
			{Kind: register.OpWrite, Val: "b", OK: true, Start: us(20), End: us(30)},
		}
		firstRead, secondRead := "b", "b"
		if sc.Seed%37 == 0 {
			secondRead = "a" // new-old inversion: b read, then the older a
		}
		res.Procs[1].Status = sim.StatusDecided
		res.Procs[1].Ops = []register.OpResult{
			{Kind: register.OpRead, Val: firstRead, OK: true, Start: us(40), End: us(50)},
		}
		res.Procs[2].Status = sim.StatusDecided
		res.Procs[2].Ops = []register.OpResult{
			{Kind: register.OpRead, Val: secondRead, OK: true, Start: us(60), End: us(70)},
		}
		out := &protocol.Outcome{Protocol: linRiggedName, Procs: make([]protocol.ProcOutcome, 3), Raw: res}
		for i := range out.Procs {
			out.Procs[i] = protocol.ProcOutcome{Status: sim.StatusDecided}
		}
		return out, nil
	}})
}

// TestSearchFindsPlantedLinearizabilityViolation: protocol.Check must
// condemn probes whose register history is not sequentially explainable as
// violations, the finding must carry the checker's error, and it must replay
// to the same broken history.
func TestSearchFindsPlantedLinearizabilityViolation(t *testing.T) {
	t.Parallel()
	rep, err := adversary.Search(adversary.Config{
		Base: protocol.Scenario{
			Protocol: linRiggedName,
			Topology: protocol.Topology{N: 3},
			Workload: protocol.Workload{Scripts: make([][]protocol.RegisterOp, 3)},
			Seed:     1,
		},
		Strategy: boundedSeeds{},
		Budget:   300,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 {
		t.Fatalf("planted inversion not found in %d probes", rep.Probes)
	}
	w := rep.Worst
	if w.Verdict != adversary.VerdictViolation {
		t.Fatalf("worst verdict = %v, want violation", w.Verdict)
	}
	if w.Scenario.Seed%37 != 0 {
		t.Fatalf("violation seed = %d, not divisible by 37", w.Scenario.Seed)
	}
	var lerr *register.ErrNotLinearizable
	if !errors.As(w.Err, &lerr) {
		t.Fatalf("finding error = %v, want ErrNotLinearizable", w.Err)
	}
	again, _, err := w.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !errors.As(protocol.Check(w.Scenario, again)[0], &lerr) {
		t.Fatal("replayed counterexample no longer violates linearizability")
	}
}

// TestLinearizabilityObjectiveCleanOnRealRegister: the ABD register is
// linearizable by construction, so a search over real register scenarios
// must classify every probe decided — protocol.Check, which checks every
// register history, never condemns one.
func TestLinearizabilityObjectiveCleanOnRealRegister(t *testing.T) {
	t.Parallel()
	part, err := model.Blocks(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	scripts := [][]protocol.RegisterOp{
		{protocol.WriteOp("w0"), protocol.ReadOp()},
		{{Write: true, Val: "w1", After: 5 * time.Microsecond}, protocol.ReadOp()},
		{protocol.ReadOp(), protocol.ReadOp()},
		{{Write: true, Val: "w3", After: 12 * time.Microsecond}},
	}
	rep, err := adversary.Search(adversary.Config{
		Base: protocol.Scenario{
			Protocol: "register",
			Topology: protocol.Topology{Partition: part},
			Workload: protocol.Workload{Scripts: scripts},
			Seed:     1,
		},
		Strategy: adversary.Combine(adversary.SeedHop(), adversary.SkewMutation(100*time.Microsecond, 0, 4)),
		Budget:   60,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("search claims %d linearizability violations in ABD: %+v", rep.Violations, rep.Findings)
	}
	if rep.Decided != rep.Probes {
		t.Fatalf("decided %d of %d probes (undecided %d, bounded-out %d)",
			rep.Decided, rep.Probes, rep.Undecided, rep.BoundedOut)
	}
}

// TestSearchSparseOverlayProtocols is the schedule-search smoke for the
// sparse-overlay family: gossip and allconcur on a circulant overlay of
// vertex connectivity 3 with two timed crashes, searched under the default
// strategy (seed hops, skew mutations, crash-instant jitter). The crash
// SET never mutates, so the live subgraph stays strongly connected in
// every probe: no probe may violate safety or block, and the worst
// finding must replay bit-for-bit.
func TestSearchSparseOverlayProtocols(t *testing.T) {
	t.Parallel()
	const n = 7
	for _, name := range []string{"gossip", "allconcur"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			workload := protocol.Workload{}
			for i := 0; i < n; i++ {
				workload.Binary = append(workload.Binary, model.Value(int8(i%2)))
				workload.Values = append(workload.Values, fmt.Sprintf("v%d", i%3))
			}
			faults := failures.NewSchedule(n)
			for _, p := range []model.ProcID{0, 6} {
				if err := faults.SetTimed(p, 300*time.Microsecond); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := adversary.Search(adversary.Config{
				Base: protocol.Scenario{
					Protocol: name,
					Topology: protocol.Topology{
						N:       n,
						Overlay: &overlay.Spec{Kind: overlay.KindCirculant, Degree: 3},
					},
					Workload: workload,
					Faults:   faults,
					Seed:     1,
					Bounds:   protocol.Bounds{MaxRounds: 10_000},
				},
				Budget: 60,
				Seed:   11,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Violations != 0 {
				t.Fatalf("search claims %d safety violations: %+v", rep.Violations, rep.Findings)
			}
			if rep.Undecided != 0 {
				t.Fatalf("%d undecided probes despite κ = 3 > 2 crashes", rep.Undecided)
			}
			again, _, err := rep.Worst.Replay()
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if !reflect.DeepEqual(rep.Worst.Outcome, again) {
				t.Fatalf("worst probe replay diverged:\n  search: %+v\n  replay: %+v", rep.Worst.Outcome, again)
			}
		})
	}
}
