package allforone

// Parallelism-independence differential suite (DESIGN.md §7, §12): the
// Workers knob is pure mechanism, so the same Scenario must produce a
// DeepEqual Outcome — decisions, rounds, message counts, steps, virtual
// time, and the scheduler's own work counters — at every expansion-pool
// width. The matrix crosses the two protocols with handler bodies against
// every delay-profile compile target (the uniform fast path with its
// lookahead overlap, an explicit skew matrix, a cluster WAN, a healing
// partition), all with timed crashes in flight, at Workers ∈ {1, 2, 3,
// NumCPU}. n = 300 sits above the sharding engagement floor (n ≥ 256)
// with uneven 18/19-recipient stripes, and 3 workers divide the 16 shards
// unevenly — both on purpose.

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"time"

	"allforone/internal/netsim"
)

const workersN = 300

// workersScenario builds one differential cell: a 10-cluster topology, an
// 8-process timed minority crash spread across clusters, and mixed binary
// proposals (unanimous for benor — see largeNWorkload).
func workersScenario(t *testing.T, protocolName string, prof NetworkProfile, workers int) Scenario {
	t.Helper()
	part, err := Blocks(workersN, 10)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewSchedule(workersN)
	for p := 0; p < 8; p++ {
		if err := sched.SetTimed(ProcID(p*(workersN/8)+1), 150*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	return Scenario{
		Protocol: protocolName,
		Topology: Topology{Partition: part},
		Workload: largeNWorkload(workersN, protocolName == ProtocolHybrid),
		Faults:   sched,
		Profile:  prof,
		Seed:     4099,
		Workers:  workers,
		Bounds:   Bounds{MaxRounds: 10_000},
	}
}

// workersProfiles returns one profile per compile target of the public
// NetworkProfile surface.
func workersProfiles() []struct {
	name string
	p    NetworkProfile
} {
	rng := rand.New(rand.NewPCG(4099, 17))
	matrix := netsim.RandomDelayMatrix(rng, workersN, 40*time.Microsecond)
	return []struct {
		name string
		p    NetworkProfile
	}{
		{"uniform", UniformProfile(50*time.Microsecond, 2*time.Millisecond)},
		{"skew-matrix", SkewMatrixProfile(matrix)},
		{"cluster-wan", ClusterWANProfile(30*time.Microsecond, 300*time.Microsecond, 20*time.Microsecond)},
		{"healing-partition", HealingPartitionProfile(nil, 300*time.Microsecond, 0, 20*time.Microsecond)},
	}
}

// TestWorkersDifferential is the parallelism-independence gate: for every
// cell, the Workers = 1 outcome is the reference and every other width
// must match it bit for bit.
func TestWorkersDifferential(t *testing.T) {
	t.Parallel()
	widths := []int{2, 3, 0} // 0 = NumCPU; 1 is the reference
	for _, protocolName := range []string{ProtocolHybrid, ProtocolBenOr} {
		for _, prof := range workersProfiles() {
			protocolName, prof := protocolName, prof
			t.Run(fmt.Sprintf("%s/%s", protocolName, prof.name), func(t *testing.T) {
				t.Parallel()
				ref, err := Run(workersScenario(t, protocolName, prof.p, 1))
				if err != nil {
					t.Fatal(err)
				}
				if ref.BoundedOut() {
					t.Fatalf("reference run bounded out after %d steps", ref.Steps)
				}
				if err := ref.CheckAgreement(); err != nil {
					t.Fatal(err)
				}
				if !ref.AllLiveDecided() {
					t.Fatalf("reference run: live processes unfinished: decided %d, crashed %d, blocked %d of %d",
						ref.CountStatus(StatusDecided), ref.CountStatus(StatusCrashed),
						ref.CountStatus(StatusBlocked), workersN)
				}
				// The suite must actually exercise the sharded path: above
				// the engagement floor every broadcast expands through it.
				if ref.Sched.ShardEvents == 0 || ref.Sched.ExpandJobs == 0 {
					t.Fatalf("sharded expansion not engaged at n=%d: %+v", workersN, ref.Sched)
				}
				for _, w := range widths {
					out, err := Run(workersScenario(t, protocolName, prof.p, w))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ref, out) {
						t.Fatalf("Workers=%d diverged from Workers=1:\n  ref: %+v\n  got: %+v", w, ref, out)
					}
				}
			})
		}
	}
}

// sparseWorkersScenario builds one differential cell for the sparse
// overlay family: a de Bruijn digraph at default degree, a small timed
// crash set (allconcur only — gossip's fixed round schedule tolerates
// them too, but crashing the rumor source would make "everyone infected"
// vacuous), and the uniform zero-min profile the large-n suites run,
// which is the hard case for burst batching (the flush bound is the
// submit instant itself, so windows stay open only through the sealed
// strict-> tie-break rule).
func sparseWorkersScenario(t *testing.T, protocolName string, n, workers int) Scenario {
	t.Helper()
	sc := Scenario{
		Protocol: protocolName,
		Topology: Topology{
			N:       n,
			Overlay: &OverlaySpec{Kind: OverlayDeBruijn, Degree: DefaultOverlayDegree(n)},
		},
		Profile: UniformProfile(0, 200*time.Microsecond),
		Seed:    1303,
		Workers: workers,
	}
	if protocolName == ProtocolGossip {
		w := Workload{Binary: make([]Value, n)}
		w.Binary[n/2] = One
		sc.Workload = w
	} else {
		w := Workload{}
		for i := 0; i < n; i++ {
			w.Values = append(w.Values, fmt.Sprintf("v%d", i))
		}
		sc.Workload = w
		sched := NewSchedule(n)
		for _, p := range []ProcID{ProcID(n / 10), ProcID(n / 2)} {
			if err := sched.SetTimed(p, 150*time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		sc.Faults = sched
	}
	return sc
}

// TestWorkersDifferentialSparse extends the parallelism-independence gate
// to the sparse overlay family: gossip and allconcur route their
// per-recipient fanouts through the sharded burst path (netsim.BurstSend /
// BurstSendVia), whose per-shard delay draws and flush-time sequence
// reservation must — like the SendAll path's — produce bit-identical
// Outcomes, traces, and scheduler stats at every Workers width.
func TestWorkersDifferentialSparse(t *testing.T) {
	t.Parallel()
	sizes := []int{1024}
	if !testing.Short() {
		sizes = append(sizes, 4096)
	}
	widths := []int{2, 0} // 0 = NumCPU; 1 is the reference
	for _, protocolName := range []string{ProtocolGossip, ProtocolAllConcur} {
		for _, n := range sizes {
			protocolName, n := protocolName, n
			t.Run(fmt.Sprintf("%s/n=%d", protocolName, n), func(t *testing.T) {
				t.Parallel()
				ref, err := Run(sparseWorkersScenario(t, protocolName, n, 1))
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.CheckAgreement(); err != nil {
					t.Fatal(err)
				}
				if !ref.AllLiveDecided() {
					t.Fatalf("reference run: live processes unfinished: decided %d, crashed %d, blocked %d of %d",
						ref.CountStatus(StatusDecided), ref.CountStatus(StatusCrashed),
						ref.CountStatus(StatusBlocked), n)
				}
				// The cell must actually exercise the burst path: sparse
				// per-recipient sends batch into sealed jobs, and allconcur
				// additionally builds pooled payloads off-token.
				if ref.Sched.BurstJobs == 0 || ref.Sched.ShardEvents == 0 {
					t.Fatalf("burst path not engaged at n=%d: %+v", n, ref.Sched)
				}
				if protocolName == ProtocolAllConcur && ref.Sched.PooledPayloadBytes == 0 {
					t.Fatalf("off-token payload construction not engaged: %+v", ref.Sched)
				}
				for _, w := range widths {
					out, err := Run(sparseWorkersScenario(t, protocolName, n, w))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ref, out) {
						t.Fatalf("Workers=%d diverged from Workers=1:\n  ref: %+v\n  got: %+v", w, ref, out)
					}
				}
			})
		}
	}
}

// TestWorkersBelowShardingFloor pins the engagement rule: below n = 256
// the run is unsharded at every Workers setting — and still bit-identical,
// trivially, because the knob selects nothing.
func TestWorkersBelowShardingFloor(t *testing.T) {
	t.Parallel()
	mk := func(workers int) Scenario {
		part, err := Blocks(64, 8)
		if err != nil {
			t.Fatal(err)
		}
		return Scenario{
			Protocol: ProtocolHybrid,
			Topology: Topology{Partition: part},
			Workload: largeNWorkload(64, true),
			Profile:  UniformProfile(50*time.Microsecond, 2*time.Millisecond),
			Seed:     4099,
			Workers:  workers,
		}
	}
	ref, err := Run(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Sched.ShardEvents != 0 || ref.Sched.ExpandJobs != 0 || ref.Sched.PoolFlushes != 0 {
		t.Fatalf("n=64 run engaged sharding: %+v", ref.Sched)
	}
	out, err := Run(mk(runtime.NumCPU()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, out) {
		t.Fatalf("unsharded runs diverged across Workers:\n  ref: %+v\n  got: %+v", ref, out)
	}
}
