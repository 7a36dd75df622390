package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"allforone/internal/model"
	"allforone/internal/protocol"
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

// outcome folds res into the uniform Outcome whose checks these tests read.
func outcome(res *Result) *protocol.Outcome { return protocol.BinaryOutcome(ProtocolName, res) }

// rendered returns vs as an Outcome renders decisions.
func rendered(vs []model.Value) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// algorithms are the registry names of the paper's two algorithms.
var algorithms = []string{AlgoLocalCoin, AlgoCommonCoin}

// phases returns the number of phases per round of algo (2 for Algorithm
// 2, 1 for Algorithm 3) — needed by failure generators.
func phases(algo string) int {
	if algo == AlgoLocalCoin {
		return 2
	}
	return 1
}

// hybridWith returns Hybrid altered by set: an ablation no Scenario
// expresses.
func hybridWith(set func(v *Variant)) Variant {
	v := Hybrid
	set(&v)
	return v
}

// runAndCheck runs sc on the hybrid model and asserts the run is
// error-free and passes protocol.Check.
func runAndCheck(t *testing.T, sc protocol.Scenario) *Result {
	t.Helper()
	res, err := RunVariant(sc, Hybrid)
	if err != nil {
		t.Fatalf("RunVariant: %v", err)
	}
	if vs := violations(sc, res); vs != nil {
		t.Fatal(vs)
	}
	return res
}

// violations holds a hybrid run of sc to protocol.Check, the oracle every
// Scenario run answers to: agreement, validity, the liveness condition, and
// cluster uniformity, crash-stop and the decisions over a recorded trace.
func violations(sc protocol.Scenario, res *Result) []protocol.Violation {
	sc.Protocol = ProtocolName
	return protocol.Check(sc, outcome(res))
}

func TestAlgorithmMeta(t *testing.T) {
	t.Parallel()
	p, ok := protocol.Lookup(ProtocolName)
	if !ok || !slices.Equal(p.Algorithms, algorithms) {
		t.Errorf("registered algorithms = %v, want %v", p.Algorithms, algorithms)
	}
	if Hybrid.Algorithm != AlgoCommonCoin {
		t.Errorf("a Scenario naming no algorithm runs %q, want %q", Hybrid.Algorithm, AlgoCommonCoin)
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
	for _, algo := range algorithms {
		for name, part := range partitions {
			for _, v := range []model.Value{model.Zero, model.One} {
				algo, part, v := algo, part, v
				t.Run(fmt.Sprintf("%v/%s/propose-%v", algo, name, v), func(t *testing.T) {
					t.Parallel()
					res := runAndCheck(t, protocol.Scenario{
						Topology:  protocol.Topology{Partition: part},
						Workload:  protocol.Workload{Binary: unanimous(part.N(), v)},
						Algorithm: algo,
						Seed:      42,
						Trace:     trace.New(),
						Bounds:    protocol.Bounds{MaxRounds: 200},
					})
					if !outcome(res).AllLiveDecided() {
						t.Fatalf("not all processes decided: %+v", res.Procs)
					}
					val, count, ok := outcome(res).Decided()
					if !ok || count != part.N() {
						t.Fatalf("decided count = %d, want %d", count, part.N())
					}
					if val != v.String() {
						t.Errorf("decided %v, want %v (validity under unanimity)", val, v)
					}
					if algo == AlgoLocalCoin && outcome(res).MaxDecisionRound() != 1 {
						t.Errorf("local-coin unanimous decision round = %d, want 1", outcome(res).MaxDecisionRound())
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
	for _, algo := range algorithms {
		for name, part := range partitions {
			for seed := int64(0); seed < 3; seed++ {
				algo, part, seed := algo, part, seed
				t.Run(fmt.Sprintf("%v/%s/seed-%d", algo, name, seed), func(t *testing.T) {
					t.Parallel()
					res := runAndCheck(t, protocol.Scenario{
						Topology:  protocol.Topology{Partition: part},
						Workload:  protocol.Workload{Binary: alternating(part.N())},
						Algorithm: algo,
						Seed:      seed,
						Trace:     trace.New(),
						Bounds:    protocol.Bounds{MaxRounds: 5000},
					})
					if !outcome(res).AllLiveDecided() {
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
	for _, algo := range algorithms {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			res := runAndCheck(t, protocol.Scenario{
				Topology:  protocol.Topology{Partition: model.Fig1Left()},
				Workload:  protocol.Workload{Binary: alternating(7)},
				Algorithm: algo,
				Seed:      7,
				Profile:   protocol.Uniform(0, 2*time.Millisecond),
				Bounds:    protocol.Bounds{MaxRounds: 5000},
			})
			if !outcome(res).AllLiveDecided() {
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
		res := runAndCheck(t, protocol.Scenario{
			Topology:  protocol.Topology{Partition: model.Singletons(n)},
			Workload:  protocol.Workload{Binary: alternating(n)},
			Algorithm: AlgoLocalCoin,
			Seed:      3,
			Bounds:    protocol.Bounds{MaxRounds: 5000},
		})
		if !outcome(res).AllLiveDecided() {
			t.Fatalf("not all decided: %+v", res.Procs)
		}
	})
	t.Run("m=1 pure shared memory", func(t *testing.T) {
		t.Parallel()
		res := runAndCheck(t, protocol.Scenario{
			Topology:  protocol.Topology{Partition: model.SingleCluster(n)},
			Workload:  protocol.Workload{Binary: alternating(n)},
			Algorithm: AlgoLocalCoin,
			Seed:      3,
			Bounds:    protocol.Bounds{MaxRounds: 100},
		})
		if !outcome(res).AllLiveDecided() {
			t.Fatalf("not all decided: %+v", res.Procs)
		}
		// With one cluster, round 1 must decide: the single CONS object
		// fixes one value for everyone.
		if got := outcome(res).MaxDecisionRound(); got != 1 {
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
	res := runAndCheck(t, protocol.Scenario{
		Topology:  protocol.Topology{Partition: part},
		Workload:  protocol.Workload{Binary: unanimous(7, model.One)},
		Algorithm: AlgoLocalCoin,
		Seed:      1,
		Bounds:    protocol.Bounds{MaxRounds: 50},
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
	val, count, ok := outcome(res).Decided()
	if !ok || count != 2 || val != model.One.String() {
		t.Errorf("Decided = %v,%d,%v", val, count, ok)
	}
	if !outcome(res).AllLiveDecided() {
		t.Error("AllLiveDecided should hold (crashed processes excluded)")
	}
	if got := outcome(res).MaxDecisionRound(); got != 3 {
		t.Errorf("MaxDecisionRound = %d, want 3", got)
	}
	if err := outcome(res).CheckAgreement(); err != nil {
		t.Errorf("CheckAgreement: %v", err)
	}
	if err := outcome(res).CheckValidity(rendered([]model.Value{model.One, model.Zero, model.One})); err != nil {
		t.Errorf("CheckValidity: %v", err)
	}

	res.Procs = append(res.Procs, ProcResult{Status: StatusBlocked})
	if outcome(res).AllLiveDecided() {
		t.Error("AllLiveDecided should fail with a blocked process")
	}

	bad := &Result{Procs: []ProcResult{
		{Status: StatusDecided, Decision: model.One},
		{Status: StatusDecided, Decision: model.Zero},
	}}
	if err := outcome(bad).CheckAgreement(); err == nil {
		t.Error("CheckAgreement missed a disagreement")
	}
	invalid := &Result{Procs: []ProcResult{{Status: StatusDecided, Decision: model.One}}}
	if err := outcome(invalid).CheckValidity(rendered([]model.Value{model.Zero})); err == nil {
		t.Error("CheckValidity missed an invalid decision")
	}
	empty := &Result{Procs: []ProcResult{{Status: StatusBlocked}}}
	if _, _, ok := outcome(empty).Decided(); ok {
		t.Error("Decided reported ok with no decisions")
	}
}

// MaxRounds must bound execution: a rigged never-matching common coin makes
// Algorithm 3 spin; every process must end blocked at the cap.
func TestMaxRoundsBoundsExecution(t *testing.T) {
	t.Parallel()
	res, err := RunVariant(protocol.Scenario{
		Topology:  protocol.Topology{Partition: model.Fig1Left()},
		Workload:  protocol.Workload{Binary: unanimous(7, model.Zero)},
		Algorithm: AlgoCommonCoin,
		Seed:      1,
		Bounds:    protocol.Bounds{MaxRounds: 5},
	}, riggedCommon(model.One)) // never equals the estimate 0
	if err != nil {
		t.Fatalf("RunVariant: %v", err)
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
