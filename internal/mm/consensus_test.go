package mm

import (
	"errors"
	"fmt"
	"testing"

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

func TestRunConfigValidation(t *testing.T) {
	t.Parallel()
	g := Fig2()
	cases := []Config{
		{Proposals: unanimous(5, model.One)},
		{Graph: g, Proposals: unanimous(3, model.One)},
		{Graph: g, Proposals: []model.Value{model.One, model.One, model.Bot, model.One, model.One}},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: error = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestUnanimousDecides(t *testing.T) {
	t.Parallel()
	complete, err := Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	star, err := Star(5)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*Graph{
		"fig2":     Fig2(),
		"complete": complete,
		"ring":     ring,
		"star":     star,
	}
	for name, g := range graphs {
		name, g := name, g
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{
				Graph:     g,
				Proposals: unanimous(g.N(), model.One),
				Seed:      7,
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
			if got := res.MaxDecisionRound(); got != 1 {
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
			g := Fig2()
			props := alternating(g.N())
			res, err := Run(Config{
				Graph:     g,
				Proposals: props,
				Seed:      seed,
				MaxRounds: 10000,
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

// The §III-C cost claim, measured: in a crash-free unanimous run (1 round,
// 2 phases) every process invokes α_i+1 objects per phase, so the total is
// 2·Σ(α_i+1) = 2·(2|E|+n), and all n centered memories are touched.
func TestMeasuredInvocationCounts(t *testing.T) {
	t.Parallel()
	g := Fig2()
	res, err := Run(Config{
		Graph:     g,
		Proposals: unanimous(5, model.Zero),
		Seed:      3,
		MaxRounds: 10,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := res.MaxDecisionRound(); got != 1 {
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
	g := Fig2()
	sched := failures.NewSchedule(5)
	for _, p := range []model.ProcID{0, 4} {
		if err := sched.Set(p, failures.Crash{
			At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart},
		}); err != nil {
			t.Fatal(err)
		}
	}
	props := alternating(5)
	res, err := Run(Config{
		Graph:     g,
		Proposals: props,
		Seed:      13,
		MaxRounds: 10000,
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

// The m&m model cannot beat the classical majority requirement: unlike the
// hybrid model's majority cluster, crashing 3 of 5 processes blocks the
// survivors (but safely).
func TestNoOneForAllProperty(t *testing.T) {
	t.Parallel()
	g := Fig2()
	sched := failures.NewSchedule(5)
	// Crash p3, p4, p5 — the dense part of the graph.
	for _, p := range []model.ProcID{2, 3, 4} {
		if err := sched.Set(p, failures.Crash{
			At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart},
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(Config{
		Graph:     g,
		Proposals: unanimous(5, model.One),
		Seed:      2,
		Crashes:   sched,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, _, decided := res.Decided(); decided {
		t.Fatal("m&m run decided despite majority crash — the model has no one-for-all closure")
	}
	for _, p := range []model.ProcID{0, 1} {
		if res.Procs[p].Status != sim.StatusBlocked {
			t.Errorf("survivor %v status = %v, want blocked", p, res.Procs[p].Status)
		}
	}
}
