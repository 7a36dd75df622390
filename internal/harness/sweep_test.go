package harness

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"allforone/internal/core"
	"allforone/internal/model"
	"allforone/internal/protocol"
)

// sweepScenarios builds k deterministic virtual-engine scenarios.
func sweepScenarios(k int) []protocol.Scenario {
	scs := make([]protocol.Scenario, k)
	for i := range scs {
		scs[i] = protocol.Scenario{
			Protocol: core.ProtocolName,
			Topology: protocol.Topology{Partition: model.Fig1Left()},
			Workload: protocol.Workload{Binary: proposalsFor("split", 7, nil)},
			Seed:     int64(i) * 31,
			Bounds:   protocol.Bounds{MaxRounds: 10_000},
		}
	}
	return scs
}

// A sweep's outcomes are in input order and independent of the pool size:
// sequential and maximally parallel execution must agree exactly (virtual
// runs are deterministic, so even Elapsed matches).
func TestSweepParallelismIndependent(t *testing.T) {
	t.Parallel()
	const k = 40
	seq, err := Sweep(sweepScenarios(k), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep(sweepScenarios(k), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != k || len(par) != k {
		t.Fatalf("lengths = %d, %d, want %d", len(seq), len(par), k)
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Fatalf("trial %d diverged across pool sizes:\n  seq: %+v\n  par: %+v", i, seq[i], par[i])
		}
	}
}

// The first invalid scenario aborts the sweep with an error.
func TestSweepPropagatesErrors(t *testing.T) {
	t.Parallel()
	scs := sweepScenarios(5)
	scs[3].Workload.Binary = nil // invalid: wrong proposal count
	if _, err := Sweep(scs, 4); !errors.Is(err, core.ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

// forEachParallel visits every index exactly once, whatever the pool size.
func TestForEachParallelCoverage(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 100
		var hits [n]int32
		err := forEachParallel(workers, n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}
