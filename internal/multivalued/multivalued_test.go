package multivalued

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// letters are seven distinct proposals.
var letters = []string{"a", "b", "c", "d", "e", "f", "g"}

// scenario is a multivalued run of proposals on part.
func scenario(part *model.Partition, proposals []string, seed int64) protocol.Scenario {
	return protocol.Scenario{
		Protocol: ProtocolName,
		Topology: protocol.Topology{Partition: part},
		Workload: protocol.Workload{Values: proposals},
		Seed:     seed,
	}
}

// run runs sc through the registry and fails on a scenario error.
func run(t *testing.T, sc protocol.Scenario) *Result {
	t.Helper()
	out, err := protocol.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out.Raw.(*Result)
}

// runLive runs sc and fails unless the run is safe — agreement, validity —
// and every live process decided.
func runLive(t *testing.T, sc protocol.Scenario) *Result {
	t.Helper()
	res := run(t, sc)
	out := outcome(res)
	if err := errors.Join(out.CheckAgreement(), out.CheckValidity(sc.Workload.Values)); err != nil {
		t.Fatal(err)
	}
	if !out.AllLiveDecided() {
		t.Fatalf("not all live decided: %+v", res.Procs)
	}
	return res
}

// crashAllExcept crashes every process of Fig1Right but the survivors at the
// top of round 1.
func crashAllExcept(t *testing.T, survivors ...model.ProcID) *failures.Schedule {
	t.Helper()
	sched, err := failures.CrashAllExcept(7, failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}, survivors...)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func TestUnanimousProposals(t *testing.T) {
	t.Parallel()
	partitions := map[string]*model.Partition{
		"fig1-left":      model.Fig1Left(),
		"fig1-right":     model.Fig1Right(),
		"singletons-5":   model.Singletons(5),
		"single-cluster": model.SingleCluster(4),
	}
	for name, part := range partitions {
		name, part := name, part
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			props := make([]string, part.N())
			for i := range props {
				props[i] = "value-X"
			}
			res := runLive(t, scenario(part, props, 11))
			if val, count, _ := outcome(res).Decided(); val != "value-X" || count != part.N() {
				t.Errorf("decided (%q, %d), want (value-X, %d)", val, count, part.N())
			}
		})
	}
}

func TestDistinctProposalsAgreeOnOne(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			props := make([]string, 7)
			for i := range props {
				props[i] = fmt.Sprintf("candidate-%d", i)
			}
			runLive(t, scenario(model.Fig1Left(), props, seed))
		})
	}
}

// The headline property carries over: multivalued consensus despite a
// majority crash, because the embedded binary instances inherit the
// one-for-all closure. The decided value is a proposal: crashed processes'
// proposals still circulated, since their PROP broadcast precedes the crash
// point, as documented.
func TestMajorityCrashSurvivorDecides(t *testing.T) {
	t.Parallel()
	sc := scenario(model.Fig1Right(), letters, 3)
	sc.Faults = crashAllExcept(t, 2) // p3 ∈ P[2]
	res := runLive(t, sc)
	if _, count, _ := outcome(res).Decided(); res.Procs[2].Status != sim.StatusDecided || count != 1 {
		t.Fatalf("survivor p3 alone should decide: %+v", res.Procs)
	}
}

func TestDuplicateProposals(t *testing.T) {
	t.Parallel()
	runLive(t, scenario(model.Singletons(4), []string{"x", "y", "x", "y"}, 9))
}

// TestHugeInstanceCap: an instance cap far past 4n costs nothing until
// instances run that far, so a run decides exactly as under the default cap.
func TestHugeInstanceCap(t *testing.T) {
	t.Parallel()
	sc := scenario(model.Fig1Left(), []string{"a", "", "c", "a", "e", "", "g"}, 4)
	want := run(t, sc)
	sc.Bounds.MaxInstances = 1 << (strconv.IntSize - 24) // 2^40 on a 64-bit platform, 2^8 on a 32-bit one
	if got := run(t, sc); !reflect.DeepEqual(got, want) {
		t.Errorf("cap %d: %+v, default cap: %+v", sc.Bounds.MaxInstances, got, want)
	}
}

func TestSingleProcess(t *testing.T) {
	t.Parallel()
	res := run(t, scenario(model.SingleCluster(1), []string{"solo"}, 1))
	if val, count, ok := outcome(res).Decided(); !ok || val != "solo" || count != 1 {
		t.Errorf("Decided = %q,%d,%v", val, count, ok)
	}
}

func TestResultHelpers(t *testing.T) {
	t.Parallel()
	r := &Result{Procs: []ProcResult{
		{Status: sim.StatusDecided, Decision: "v"},
		{Status: sim.StatusCrashed},
	}}
	if err := outcome(r).CheckAgreement(); err != nil {
		t.Errorf("CheckAgreement: %v", err)
	}
	if !outcome(r).AllLiveDecided() {
		t.Error("AllLiveDecided should hold")
	}
	r.Procs = append(r.Procs, ProcResult{Status: sim.StatusDecided, Decision: "w"})
	if err := outcome(r).CheckAgreement(); err == nil {
		t.Error("CheckAgreement missed disagreement")
	}
	if err := outcome(r).CheckValidity([]string{"v", "w"}); err != nil {
		t.Errorf("CheckValidity: %v", err)
	}
	if err := outcome(r).CheckValidity([]string{"z"}); err == nil {
		t.Error("CheckValidity missed invalid decision")
	}
	r.Procs = append(r.Procs, ProcResult{Status: sim.StatusBlocked})
	if outcome(r).AllLiveDecided() {
		t.Error("AllLiveDecided should fail with blocked process")
	}
}

// TestReplayBitReproducible pins replay of cells the registry suite's
// multivalued row lacks: Fig1Left, a 0–2 ms band, and a crash at the top of
// round 2 beside a timed one, over three seeds.
func TestReplayBitReproducible(t *testing.T) {
	t.Parallel()
	config := func(seed int64) protocol.Scenario {
		sched := failures.NewSchedule(7)
		err := errors.Join(
			sched.Set(5, failures.Crash{At: failures.Point{Round: 2, Phase: 1, Stage: failures.StageRoundStart}}),
			sched.SetTimed(6, 4*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		sc := scenario(model.Fig1Left(), letters, seed)
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

// TestTimedCrash verifies virtual-instant failure injection: victims halt
// as crashed, survivors still decide (Fig1Left keeps a live majority
// closure), and the run stays safe.
func TestTimedCrash(t *testing.T) {
	t.Parallel()
	sched := failures.NewSchedule(7)
	if err := sched.SetTimed(3, 10*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	sc := scenario(model.Fig1Left(), letters, 7)
	sc.Faults, sc.Profile = sched, protocol.Uniform(200*time.Microsecond, time.Millisecond)
	res := runLive(t, sc)
	if res.Procs[3].Status != sim.StatusCrashed {
		t.Errorf("victim = %+v, want crashed", res.Procs[3])
	}
}
