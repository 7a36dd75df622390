package multivalued

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/sim"
)

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
			res, err := Run(Config{
				Partition: part,
				Proposals: props,
				Setup:     sim.Setup{Seed: 11},
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !outcome(res).AllLiveDecided() {
				t.Fatalf("not all decided: %+v", res.Procs)
			}
			val, count, _ := outcome(res).Decided()
			if val != "value-X" || count != part.N() {
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
			part := model.Fig1Left()
			props := make([]string, part.N())
			for i := range props {
				props[i] = fmt.Sprintf("candidate-%d", i)
			}
			res, err := Run(Config{
				Partition: part,
				Proposals: props,
				Setup:     sim.Setup{Seed: seed},
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			out := outcome(res)
			if err := out.CheckAgreement(); err != nil {
				t.Fatal(err)
			}
			if err := out.CheckValidity(props); err != nil {
				t.Fatal(err)
			}
			if !out.AllLiveDecided() {
				t.Fatalf("not all decided: %+v", res.Procs)
			}
		})
	}
}

// The headline property carries over: multivalued consensus despite a
// majority crash, because the embedded binary instances inherit the
// one-for-all closure.
func TestMajorityCrashSurvivorDecides(t *testing.T) {
	t.Parallel()
	part := model.Fig1Right()
	props := []string{"a", "b", "c", "d", "e", "f", "g"}
	sched := failures.NewSchedule(7)
	for _, p := range []model.ProcID{0, 1, 3, 4, 5, 6} { // all but p3 ∈ P[2]
		if err := sched.Set(p, failures.Crash{
			At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart},
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(Config{
		Partition: part,
		Proposals: props,
		Setup:     sim.Setup{Seed: 3, Crashes: sched},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Procs[2].Status != sim.StatusDecided {
		t.Fatalf("survivor did not decide: %+v", res.Procs)
	}
	out := outcome(res)
	if err := out.CheckValidity(props); err != nil {
		t.Fatal(err)
	}
	val, count, _ := out.Decided()
	if count != 1 {
		t.Errorf("decided count = %d, want 1", count)
	}
	// The decided value must be one of the proposals (crashed processes'
	// proposals still circulated — their PROP broadcast precedes the
	// crash point, as documented).
	found := false
	for _, p := range props {
		if p == val {
			found = true
		}
	}
	if !found {
		t.Errorf("decided %q not among proposals", val)
	}
}

// Indulgence carries over: a dead failure pattern blocks but never yields
// a wrong or disagreeing decision.
func TestBlockedWhenLivenessFails(t *testing.T) {
	t.Parallel()
	part := model.Fig1Right()
	props := []string{"a", "b", "c", "d", "e", "f", "g"}
	sched := failures.NewSchedule(7)
	for _, p := range []model.ProcID{1, 2, 3, 4} { // wipe the majority cluster
		if err := sched.Set(p, failures.Crash{
			At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart},
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(Config{
		Partition: part,
		Proposals: props,
		Setup:     sim.Setup{Seed: 5, Crashes: sched},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := outcome(res)
	if _, _, decided := out.Decided(); decided {
		t.Fatal("decided under a dead failure pattern")
	}
	if err := out.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateProposals(t *testing.T) {
	t.Parallel()
	part := model.Singletons(4)
	props := []string{"x", "y", "x", "y"}
	res, err := Run(Config{
		Partition: part,
		Proposals: props,
		Setup:     sim.Setup{Seed: 9},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := outcome(res)
	if !out.AllLiveDecided() {
		t.Fatalf("not all decided: %+v", res.Procs)
	}
	if err := out.CheckValidity(props); err != nil {
		t.Fatal(err)
	}
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
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxInstances = 1 << 40
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cap 2^40: %+v, default cap: %+v", got, want)
	}
}

func TestSingleProcess(t *testing.T) {
	t.Parallel()
	res, err := Run(Config{
		Partition: model.SingleCluster(1),
		Proposals: []string{"solo"},
		Setup:     sim.Setup{Seed: 1},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	val, count, ok := outcome(res).Decided()
	if !ok || val != "solo" || count != 1 {
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
