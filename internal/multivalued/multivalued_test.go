package multivalued

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// letters are seven distinct proposals.
var letters = []string{"a", "b", "c", "d", "e", "f", "g"}

// run runs cfg and fails on a configuration error.
func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// runLive runs cfg and fails unless the run is safe — agreement, validity —
// and every live process decided.
func runLive(t *testing.T, cfg Config) *Result {
	t.Helper()
	res := run(t, cfg)
	out := outcome(res)
	if err := errors.Join(out.CheckAgreement(), out.CheckValidity(cfg.Proposals)); err != nil {
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

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	if _, err := Run(Config{Proposals: []string{"a"}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil partition error = %v", err)
	}
	if _, err := Run(Config{Partition: model.Singletons(3), Proposals: []string{"a"}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("short proposals error = %v", err)
	}
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
			res := runLive(t, Config{Partition: part, Proposals: props, Setup: sim.Setup{Seed: 11}})
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
			runLive(t, Config{Partition: model.Fig1Left(), Proposals: props, Setup: sim.Setup{Seed: seed}})
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
	cfg := Config{Partition: model.Fig1Right(), Proposals: letters, Setup: sim.Setup{Seed: 3, Crashes: crashAllExcept(t, 2)}} // p3 ∈ P[2]
	res := runLive(t, cfg)
	if _, count, _ := outcome(res).Decided(); res.Procs[2].Status != sim.StatusDecided || count != 1 {
		t.Fatalf("survivor p3 alone should decide: %+v", res.Procs)
	}
}

func TestDuplicateProposals(t *testing.T) {
	t.Parallel()
	runLive(t, Config{Partition: model.Singletons(4), Proposals: []string{"x", "y", "x", "y"}, Setup: sim.Setup{Seed: 9}})
}

// TestHugeInstanceCap: an instance cap far past 4n costs nothing until
// instances run that far, so a run decides exactly as under the default cap.
func TestHugeInstanceCap(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Partition: model.Fig1Left(),
		Proposals: []string{"a", "", "c", "a", "e", "", "g"},
		Setup:     sim.Setup{Seed: 4},
	}
	want := run(t, cfg)
	cfg.MaxInstances = 1 << 40
	if got := run(t, cfg); !reflect.DeepEqual(got, want) {
		t.Errorf("cap 2^40: %+v, default cap: %+v", got, want)
	}
}

func TestSingleProcess(t *testing.T) {
	t.Parallel()
	res := run(t, Config{Partition: model.SingleCluster(1), Proposals: []string{"solo"}, Setup: sim.Setup{Seed: 1}})
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
	config := func(seed int64) Config {
		sched := failures.NewSchedule(7)
		err := errors.Join(
			sched.Set(5, failures.Crash{At: failures.Point{Round: 2, Phase: 1, Stage: failures.StageRoundStart}}),
			sched.SetTimed(6, 4*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Partition: model.Fig1Left(),
			Proposals: letters,
			Setup: sim.Setup{
				Seed:       seed,
				Crashes:    sched,
				NetOptions: []netsim.Option{netsim.WithUniformDelay(0, 2*time.Millisecond)},
			},
		}
	}
	for _, seed := range []int64{1, 42, 917} {
		res1, res2 := run(t, config(seed)), run(t, config(seed))
		if !reflect.DeepEqual(res1, res2) || res1.Steps == 0 {
			t.Errorf("seed %d: Results diverged or took no step:\n  run1: %+v\n  run2: %+v", seed, res1, res2)
		}
	}
}

// TestSafetyAcrossSchedules samples the schedule space: 32 seeds, each at
// immediate delivery and under a 0–1 ms uniform band (replayable), every
// run held to protocol.Check: agreement, validity and, crash-free,
// termination.
func TestSafetyAcrossSchedules(t *testing.T) {
	t.Parallel()
	for _, band := range []protocol.NetworkProfile{nil, protocol.Uniform(0, time.Millisecond)} {
		for seed := int64(0); seed < 32; seed++ {
			sc := protocol.Scenario{
				Protocol: ProtocolName,
				Topology: protocol.Topology{Partition: model.Fig1Right()},
				Workload: protocol.Workload{Values: []string{"u", "v", "w", "x", "y", "z", "q"}},
				Profile:  band,
				Seed:     seed,
			}
			out, err := protocol.Run(sc)
			if err != nil {
				t.Fatalf("band %v seed %d: %v", band, seed, err)
			}
			if vs := protocol.Check(sc, out); vs != nil {
				t.Errorf("band %v seed %d: %v", band, seed, vs)
			}
		}
	}
}

// TestVirtualQuiescenceBlocks pins the deterministic blocked verdict for a
// dead failure pattern — the majority cluster wiped: the run must end at
// quiescence, instantly, instead of waiting out a wall-clock timeout. And
// indulgence carries over: it blocks but never yields a wrong or
// disagreeing decision.
func TestVirtualQuiescenceBlocks(t *testing.T) {
	t.Parallel()
	start := time.Now()
	res := run(t, Config{Partition: model.Fig1Right(), Proposals: letters, Setup: sim.Setup{Seed: 5, Crashes: crashAllExcept(t, 0, 5, 6)}})
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("blocked verdict took %v of real time", wall)
	}
	if !res.Quiesced {
		t.Errorf("Quiesced = false, want true: %+v", res)
	}
	out := outcome(res)
	if _, _, decided := out.Decided(); decided {
		t.Error("decided under a dead failure pattern")
	}
	if err := out.CheckAgreement(); err != nil {
		t.Error(err)
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
	res := runLive(t, Config{
		Partition: model.Fig1Left(),
		Proposals: letters,
		Setup: sim.Setup{
			Seed:       7,
			Crashes:    sched,
			NetOptions: []netsim.Option{netsim.WithUniformDelay(200*time.Microsecond, time.Millisecond)},
		},
	})
	if res.Procs[3].Status != sim.StatusCrashed {
		t.Errorf("victim = %+v, want crashed", res.Procs[3])
	}
}
