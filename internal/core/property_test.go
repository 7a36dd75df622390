package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/protocol"
	"allforone/internal/trace"
)

// randomPartition draws a partition of n processes into a random number of
// random-size clusters.
func randomPartition(rng *rand.Rand, n int) *model.Partition {
	perm := rng.Perm(n)
	m := 1 + rng.IntN(n)
	clusters := make([][]int, m)
	for i, p := range perm {
		x := i % m
		clusters[x] = append(clusters[x], p)
	}
	return model.MustPartition(clusters)
}

// TestRandomConfigurationSweep is the repository's heaviest property test:
// random topology, proposals, algorithm, crash pattern and delays, with
// every run held to protocol.Check — full safety checking, and termination
// whenever the paper's liveness condition holds.
func TestRandomConfigurationSweep(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("sweep is slow; skipped with -short")
	}
	rng := rand.New(rand.NewPCG(0xa11f04e, 0x1))
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.IntN(9) // 2..10 processes
		part := randomPartition(rng, n)
		algo := algorithms[rng.IntN(2)]
		props := make([]model.Value, n)
		for i := range props {
			props[i] = model.BitToValue(rng.Uint64())
		}
		k := rng.IntN(n) // up to n-1 crashes
		sched, err := failures.GenRandom(rng, n, k, 3, phases(algo))
		if err != nil {
			t.Fatal(err)
		}
		live := part.LivenessHolds(sched.Crashed())
		var maxDelay time.Duration
		if rng.IntN(3) == 0 {
			maxDelay = time.Duration(rng.IntN(1500)) * time.Microsecond
		}

		sc := protocol.Scenario{
			Topology:  protocol.Topology{Partition: part},
			Workload:  protocol.Workload{Binary: props},
			Algorithm: algo,
			Seed:      int64(trial) * 6011,
			Faults:    sched,
			Profile:   protocol.Uniform(0, maxDelay),
			Trace:     trace.New(),
			Bounds:    protocol.Bounds{MaxRounds: 10_000},
		}
		res, err := RunVariant(sc, Hybrid)
		ctx := fmt.Sprintf("trial %d: n=%d part=%v algo=%v crashed=%v live=%v",
			trial, n, part, algo, sched.Crashed(), live)
		if err != nil {
			t.Fatalf("%s: RunVariant: %v", ctx, err)
		}
		if vs := violations(sc, res); vs != nil {
			t.Fatalf("%s: %v", ctx, vs)
		}
	}
}

// phaseKey ordering is lexicographic.
func TestPhaseKeyOrdering(t *testing.T) {
	t.Parallel()
	tests := []struct {
		a, b phaseKey
		want bool
	}{
		{phaseKey{1, 1}, phaseKey{1, 2}, true},
		{phaseKey{1, 2}, phaseKey{2, 1}, true},
		{phaseKey{2, 1}, phaseKey{1, 2}, false},
		{phaseKey{1, 1}, phaseKey{1, 1}, false},
	}
	for _, tt := range tests {
		if got := tt.a.less(tt.b); got != tt.want {
			t.Errorf("less(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// Message String renderings (documentation-quality output).
func TestMessageStrings(t *testing.T) {
	t.Parallel()
	pm := PhaseMsg{Round: 3, Phase: 2, Est: model.Bot}
	if got := pm.String(); got != "PHASE(3,2,⊥)" {
		t.Errorf("PhaseMsg.String = %q", got)
	}
	dm := DecideMsg{Val: model.One}
	if got := dm.String(); got != "DECIDE(1)" {
		t.Errorf("DecideMsg.String = %q", got)
	}
}
