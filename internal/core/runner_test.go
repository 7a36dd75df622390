package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"allforone/internal/model"
	"allforone/internal/trace"
)

// unanimous returns n proposals all equal to v.
func unanimous(n int, v model.Value) []model.Value {
	out := make([]model.Value, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// alternating returns proposals 0,1,0,1,…
func alternating(n int) []model.Value {
	out := make([]model.Value, n)
	for i := range out {
		out[i] = model.Value(int8(i % 2))
	}
	return out
}

// runAndCheck executes cfg and asserts the run is error-free and safe
// (agreement + validity + cluster uniformity when traced).
func runAndCheck(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	if err := res.CheckValidity(cfg.Proposals); err != nil {
		t.Fatal(err)
	}
	if cfg.Trace != nil {
		if err := trace.CheckClusterUniformity(cfg.Trace, cfg.Partition); err != nil {
			t.Fatal(err)
		}
		if err := trace.CheckDecisions(cfg.Trace); err != nil {
			t.Fatal(err)
		}
		if err := trace.CheckNoStepsAfterCrash(cfg.Trace); err != nil {
			t.Fatal(err)
		}
	}
	return res
}

func TestRunConfigValidation(t *testing.T) {
	t.Parallel()
	part := model.Fig1Left()
	tests := []struct {
		name string
		cfg  Config
	}{
		{"nil partition", Config{Proposals: unanimous(7, model.One), Algorithm: LocalCoin}},
		{"wrong proposal count", Config{Partition: part, Proposals: unanimous(3, model.One), Algorithm: LocalCoin}},
		{"non-binary proposal", Config{Partition: part, Proposals: unanimous(7, model.Bot), Algorithm: LocalCoin}},
		{"unknown algorithm", Config{Partition: part, Proposals: unanimous(7, model.One), Algorithm: Algorithm(9)}},
		{"negative max rounds", Config{Partition: part, Proposals: unanimous(7, model.One), Algorithm: LocalCoin, MaxRounds: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if _, err := Run(tt.cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("Run error = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestAlgorithmMeta(t *testing.T) {
	t.Parallel()
	if LocalCoin.String() != "local-coin" || CommonCoin.String() != "common-coin" {
		t.Error("algorithm names wrong")
	}
	if Algorithm(9).String() != "Algorithm(9)" {
		t.Error("unknown algorithm name wrong")
	}
	if LocalCoin.Phases() != 2 || CommonCoin.Phases() != 1 {
		t.Error("phase counts wrong")
	}
	for _, s := range []Status{StatusDecided, StatusCrashed, StatusBlocked, StatusFailed} {
		if s.String() == "unknown" {
			t.Errorf("status %d has no name", s)
		}
	}
	if Status(99).String() != "unknown" {
		t.Error("unknown status name wrong")
	}
}

// Crash-free unanimous runs must decide the proposed value, and Algorithm 2
// must decide in round 1 (everyone sees a unanimous majority).
func TestUnanimousCrashFree(t *testing.T) {
	t.Parallel()
	partitions := map[string]*model.Partition{
		"fig1-left":      model.Fig1Left(),
		"fig1-right":     model.Fig1Right(),
		"singletons-7":   model.Singletons(7),
		"single-cluster": model.SingleCluster(7),
		"single-process": model.SingleCluster(1),
	}
	for _, algo := range []Algorithm{LocalCoin, CommonCoin} {
		for name, part := range partitions {
			for _, v := range []model.Value{model.Zero, model.One} {
				algo, part, v := algo, part, v
				t.Run(fmt.Sprintf("%v/%s/propose-%v", algo, name, v), func(t *testing.T) {
					t.Parallel()
					log := trace.New()
					res := runAndCheck(t, Config{
						Partition: part,
						Proposals: unanimous(part.N(), v),
						Algorithm: algo,
						Seed:      42,
						MaxRounds: 200,
						Trace:     log,
					})
					if !res.AllLiveDecided() {
						t.Fatalf("not all processes decided: %+v", res.Procs)
					}
					val, count, ok := res.Decided()
					if !ok || count != part.N() {
						t.Fatalf("decided count = %d, want %d", count, part.N())
					}
					if val != v {
						t.Errorf("decided %v, want %v (validity under unanimity)", val, v)
					}
					if algo == LocalCoin && res.MaxDecisionRound() != 1 {
						t.Errorf("local-coin unanimous decision round = %d, want 1", res.MaxDecisionRound())
					}
				})
			}
		}
	}
}

// Split proposals: both algorithms must still terminate with a valid,
// agreed decision on every topology.
func TestSplitProposalsCrashFree(t *testing.T) {
	t.Parallel()
	partitions := map[string]*model.Partition{
		"fig1-left":    model.Fig1Left(),
		"fig1-right":   model.Fig1Right(),
		"singletons-5": model.Singletons(5),
		"blocks-9-3":   mustBlocks(t, 9, 3),
	}
	for _, algo := range []Algorithm{LocalCoin, CommonCoin} {
		for name, part := range partitions {
			for seed := int64(0); seed < 3; seed++ {
				algo, part, seed := algo, part, seed
				t.Run(fmt.Sprintf("%v/%s/seed-%d", algo, name, seed), func(t *testing.T) {
					t.Parallel()
					log := trace.New()
					res := runAndCheck(t, Config{
						Partition: part,
						Proposals: alternating(part.N()),
						Algorithm: algo,
						Seed:      seed,
						MaxRounds: 5000,
						Trace:     log,
					})
					if !res.AllLiveDecided() {
						t.Fatalf("not all processes decided: %+v", res.Procs)
					}
				})
			}
		}
	}
}

func mustBlocks(t *testing.T, n, m int) *model.Partition {
	t.Helper()
	p, err := model.Blocks(n, m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Message delays exercise cross-round buffering; safety and termination
// must be unaffected.
func TestWithNetworkDelays(t *testing.T) {
	t.Parallel()
	for _, algo := range []Algorithm{LocalCoin, CommonCoin} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			t.Parallel()
			res := runAndCheck(t, Config{
				Partition: model.Fig1Left(),
				Proposals: alternating(7),
				Algorithm: algo,
				Seed:      7,
				MaxRounds: 5000,
				MinDelay:  0,
				MaxDelay:  2 * time.Millisecond,
			})
			if !res.AllLiveDecided() {
				t.Fatalf("not all processes decided: %+v", res.Procs)
			}
		})
	}
}

// The m=n degenerate case is the classical message-passing model; the
// m=1 degenerate case is the classical shared-memory model (paper §II-A).
func TestExtremeConfigurations(t *testing.T) {
	t.Parallel()
	const n = 5
	t.Run("m=n pure message passing", func(t *testing.T) {
		t.Parallel()
		res := runAndCheck(t, Config{
			Partition: model.Singletons(n),
			Proposals: alternating(n),
			Algorithm: LocalCoin,
			Seed:      3,
			MaxRounds: 5000,
		})
		if !res.AllLiveDecided() {
			t.Fatalf("not all decided: %+v", res.Procs)
		}
	})
	t.Run("m=1 pure shared memory", func(t *testing.T) {
		t.Parallel()
		res := runAndCheck(t, Config{
			Partition: model.SingleCluster(n),
			Proposals: alternating(n),
			Algorithm: LocalCoin,
			Seed:      3,
			MaxRounds: 100,
		})
		if !res.AllLiveDecided() {
			t.Fatalf("not all decided: %+v", res.Procs)
		}
		// With one cluster, round 1 must decide: the single CONS object
		// fixes one value for everyone.
		if got := res.MaxDecisionRound(); got != 1 {
			t.Errorf("m=1 decision round = %d, want 1", got)
		}
	})
}

// Metrics must reflect the run: messages flowed, consensus objects were
// invoked exactly once per process per phase per executed round (plus the
// cluster totals must sum to the global count).
func TestMetricsAccounting(t *testing.T) {
	t.Parallel()
	part := model.Fig1Left()
	res := runAndCheck(t, Config{
		Partition: part,
		Proposals: unanimous(7, model.One),
		Algorithm: LocalCoin,
		Seed:      1,
		MaxRounds: 50,
	})
	m := res.Metrics
	if m.MsgsSent == 0 || m.MsgsDelivered == 0 || m.Broadcasts == 0 {
		t.Errorf("no message traffic recorded: %+v", m)
	}
	if m.MsgsDelivered > m.MsgsSent {
		t.Errorf("delivered %d > sent %d", m.MsgsDelivered, m.MsgsSent)
	}
	var perCluster int64
	for _, c := range res.ConsInvocations {
		perCluster += c
	}
	if perCluster != m.ConsInvocations {
		t.Errorf("per-cluster invocations sum %d != global %d", perCluster, m.ConsInvocations)
	}
	// Unanimous round-1 decision: each process proposes once per phase,
	// 2 phases, 7 processes → exactly 14 invocations.
	if m.ConsInvocations != 14 {
		t.Errorf("ConsInvocations = %d, want 14 (7 procs × 2 phases × 1 round)", m.ConsInvocations)
	}
	// One allocation per cluster per (round, phase): 3 clusters × 2 slots.
	var allocs int64
	for _, a := range res.ConsAllocations {
		allocs += a
	}
	if allocs != 6 {
		t.Errorf("allocations = %d, want 6", allocs)
	}
	if m.MaxRound != 1 {
		t.Errorf("MaxRound = %d, want 1", m.MaxRound)
	}
}

func TestResultHelpers(t *testing.T) {
	t.Parallel()
	res := &Result{Procs: []ProcResult{
		{Status: StatusDecided, Decision: model.One, Round: 2},
		{Status: StatusCrashed, Round: 1},
		{Status: StatusDecided, Decision: model.One, Round: 3},
	}}
	val, count, ok := res.Decided()
	if !ok || count != 2 || val != model.One {
		t.Errorf("Decided = %v,%d,%v", val, count, ok)
	}
	if !res.AllLiveDecided() {
		t.Error("AllLiveDecided should hold (crashed processes excluded)")
	}
	if got := res.MaxDecisionRound(); got != 3 {
		t.Errorf("MaxDecisionRound = %d, want 3", got)
	}
	if err := res.CheckAgreement(); err != nil {
		t.Errorf("CheckAgreement: %v", err)
	}
	if err := res.CheckValidity([]model.Value{model.One, model.Zero, model.One}); err != nil {
		t.Errorf("CheckValidity: %v", err)
	}

	res.Procs = append(res.Procs, ProcResult{Status: StatusBlocked})
	if res.AllLiveDecided() {
		t.Error("AllLiveDecided should fail with a blocked process")
	}

	bad := &Result{Procs: []ProcResult{
		{Status: StatusDecided, Decision: model.One},
		{Status: StatusDecided, Decision: model.Zero},
	}}
	if err := bad.CheckAgreement(); err == nil {
		t.Error("CheckAgreement missed a disagreement")
	}
	invalid := &Result{Procs: []ProcResult{{Status: StatusDecided, Decision: model.One}}}
	if err := invalid.CheckValidity([]model.Value{model.Zero}); err == nil {
		t.Error("CheckValidity missed an invalid decision")
	}
	empty := &Result{Procs: []ProcResult{{Status: StatusBlocked}}}
	if _, _, ok := empty.Decided(); ok {
		t.Error("Decided reported ok with no decisions")
	}
}

// MaxRounds must bound execution: a rigged never-matching common coin makes
// Algorithm 3 spin; every process must end blocked at the cap.
func TestMaxRoundsBoundsExecution(t *testing.T) {
	t.Parallel()
	res, err := Run(Config{
		Partition:          model.Fig1Left(),
		Proposals:          unanimous(7, model.Zero),
		Algorithm:          CommonCoin,
		Seed:               1,
		MaxRounds:          5,
		CommonCoinOverride: fixedCommon(model.One), // never equals the estimate 0
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, pr := range res.Procs {
		if pr.Status != StatusBlocked {
			t.Errorf("process %d status = %v, want blocked", i, pr.Status)
		}
		if pr.Round != 5 {
			t.Errorf("process %d stopped at round %d, want 5", i, pr.Round)
		}
	}
	if res.Metrics.MaxRound != 5 {
		t.Errorf("MaxRound = %d, want 5", res.Metrics.MaxRound)
	}
}
