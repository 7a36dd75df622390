package allforone

// Sharded replay suite (DESIGN.md §12): a Scenario on the sharded expansion
// path must produce a DeepEqual Outcome — decisions, rounds, message counts,
// steps, virtual time, and the scheduler's own work counters — when it is run
// again. The dense matrix crosses the two protocols with handler bodies
// against every delay-profile compile target (the uniform band with its
// lookahead overlap, an explicit skew matrix, a cluster WAN, a healing
// partition), all with timed crashes in flight; n = 300 sits above the
// sharding engagement floor (n ≥ 256), on two 150-recipient stripes. The
// sparse cells run gossip and allconcur on the burst path. The test names
// are those of the expansion-pool width differential these cells used to
// run, so their history stays comparable.

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"allforone/internal/netsim"
)

const replayN = 300

// denseReplayScenario builds one dense cell: a 10-cluster topology, an
// 8-process timed minority crash spread across clusters, and mixed binary
// proposals (unanimous for benor — see largeNWorkload).
func denseReplayScenario(t *testing.T, protocolName string, prof NetworkProfile) Scenario {
	t.Helper()
	part, err := Blocks(replayN, 10)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewSchedule(replayN)
	for p := 0; p < 8; p++ {
		if err := sched.SetTimed(ProcID(p*(replayN/8)+1), 150*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	return Scenario{
		Protocol: protocolName,
		Topology: Topology{Partition: part},
		Workload: largeNWorkload(replayN, protocolName == ProtocolHybrid),
		Faults:   sched,
		Profile:  prof,
		Seed:     4099,
		Bounds:   Bounds{MaxRounds: 10_000},
	}
}

// replayProfiles returns one profile per compile target of the public
// NetworkProfile surface.
func replayProfiles() []struct {
	name string
	p    NetworkProfile
} {
	rng := rand.New(rand.NewPCG(4099, 17))
	matrix := netsim.RandomDelayMatrix(rng, replayN, 40*time.Microsecond)
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

// runAndReplay runs sc twice and fails unless the first Outcome passes Check
// and the two are DeepEqual. It returns the first.
func runAndReplay(t *testing.T, sc Scenario) *Outcome {
	t.Helper()
	ref, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if vs := Check(sc, ref); vs != nil {
		t.Fatal(vs)
	}
	out, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, out) {
		t.Fatalf("replay diverged:\n  ref: %+v\n  got: %+v", ref, out)
	}
	return ref
}

// TestWorkersDifferential is the dense replay gate: every cell must decide
// everywhere it is live, agree, take the sharded path, and replay bit for
// bit.
func TestWorkersDifferential(t *testing.T) {
	t.Parallel()
	for _, protocolName := range []string{ProtocolHybrid, ProtocolBenOr} {
		for _, prof := range replayProfiles() {
			protocolName, prof := protocolName, prof
			t.Run(fmt.Sprintf("%s/%s", protocolName, prof.name), func(t *testing.T) {
				t.Parallel()
				ref := runAndReplay(t, denseReplayScenario(t, protocolName, prof.p))
				if ref.BoundedOut() {
					t.Fatalf("run bounded out after %d steps", ref.Steps)
				}
				if !ref.AllLiveDecided() {
					t.Fatalf("live processes unfinished: decided %d, crashed %d, blocked %d of %d",
						ref.CountStatus(StatusDecided), ref.CountStatus(StatusCrashed),
						ref.CountStatus(StatusBlocked), replayN)
				}
				// The suite must actually exercise the sharded path: above
				// the engagement floor every broadcast expands through it.
				if ref.Sched.ShardEvents == 0 || ref.Sched.ExpandJobs == 0 {
					t.Fatalf("sharded expansion not engaged at n=%d: %+v", replayN, ref.Sched)
				}
			})
		}
	}
}

// sparseReplayScenario builds one cell of the sparse overlay family: a de
// Bruijn digraph at default degree, a small timed crash set (allconcur only —
// gossip's fixed round schedule tolerates them too, but crashing the rumor
// source would make "everyone infected" vacuous), and the uniform zero-min
// profile the large-n suites run, which is the hard case for burst batching
// (the flush bound is the submit instant itself, so windows stay open only
// through the strict-> tie-break rule).
func sparseReplayScenario(t *testing.T, protocolName string, n int) Scenario {
	t.Helper()
	sc := Scenario{
		Protocol: protocolName,
		Topology: Topology{
			N:       n,
			Overlay: &OverlaySpec{Kind: OverlayDeBruijn, Degree: DefaultOverlayDegree(n)},
		},
		Profile: UniformProfile(0, 200*time.Microsecond),
		Seed:    1303,
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

// TestWorkersDifferentialSparse extends the replay gate to the sparse overlay
// family: gossip and allconcur route their per-recipient sends through the
// sharded burst path (netsim.BurstSend / BurstSendVia), whose per-shard delay
// draws and flush-time sequence reservation must — like the SendAll path's —
// replay to a bit-identical Outcome.
func TestWorkersDifferentialSparse(t *testing.T) {
	t.Parallel()
	sizes := []int{1024}
	if !testing.Short() {
		sizes = append(sizes, 4096)
	}
	for _, protocolName := range []string{ProtocolGossip, ProtocolAllConcur} {
		for _, n := range sizes {
			protocolName, n := protocolName, n
			t.Run(fmt.Sprintf("%s/n=%d", protocolName, n), func(t *testing.T) {
				t.Parallel()
				ref := runAndReplay(t, sparseReplayScenario(t, protocolName, n))
				if !ref.AllLiveDecided() {
					t.Fatalf("live processes unfinished: decided %d, crashed %d, blocked %d of %d",
						ref.CountStatus(StatusDecided), ref.CountStatus(StatusCrashed),
						ref.CountStatus(StatusBlocked), n)
				}
				// The cell must actually exercise the burst path: sparse
				// per-recipient sends batch into sealed jobs, and allconcur
				// additionally builds pooled payloads at the flush.
				if ref.Sched.BurstJobs == 0 || ref.Sched.ShardEvents == 0 {
					t.Fatalf("burst path not engaged at n=%d: %+v", n, ref.Sched)
				}
				if protocolName == ProtocolAllConcur && ref.Sched.PooledPayloadBytes == 0 {
					t.Fatalf("flush-time payload construction not engaged: %+v", ref.Sched)
				}
			})
		}
	}
}
