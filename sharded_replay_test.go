package allforone

// Sharded replay (DESIGN.md §4, §9): a Scenario on the sharded expansion
// path must produce a DeepEqual Outcome — decisions, rounds, message counts,
// steps, virtual time, and the scheduler's own work counters — when it is run
// again, through the property suite's runAndReplay. The dense cells
// (largeNScenario at n = 300, 10 clusters) cross hybrid and benor with every
// delay-profile compile target (the uniform band with its lookahead overlap,
// an explicit skew matrix, a cluster WAN, a healing partition), all with
// timed crashes in flight; n = 300 sits above the sharding engagement floor
// (n ≥ 256), on two 150-recipient stripes. The sparse cells run gossip and
// allconcur on the burst path.

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"allforone/internal/netsim"
)

const replayN = 300

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

// TestShardedReplay is the dense replay gate: every cell must decide
// everywhere it is live, agree, take the sharded path, and replay bit for
// bit.
func TestShardedReplay(t *testing.T) {
	t.Parallel()
	for _, protocolName := range []string{ProtocolHybrid, ProtocolBenOr} {
		for _, prof := range replayProfiles() {
			protocolName, prof := protocolName, prof
			t.Run(fmt.Sprintf("%s/%s", protocolName, prof.name), func(t *testing.T) {
				t.Parallel()
				sc := largeNScenario(t, replayN, 10, protocolName, prof.p)
				sc.Seed = 4099
				ref := runAndReplay(t, sc)
				requireLive(t, ref)
				// The suite must actually exercise the sharded path: above
				// the engagement floor every broadcast expands through it.
				if ref.Sched.ShardEvents == 0 || ref.Sched.ExpandJobs == 0 {
					t.Fatalf("sharded expansion not engaged at n=%d: %+v", replayN, ref.Sched)
				}
			})
		}
	}
}

// sparseScenario builds one cell of the sparse overlay family at n: a de
// Bruijn digraph at default degree and the uniform zero-min profile, the hard
// case for burst batching (the flush bound is the submit instant itself, so
// windows stay open only through the strict-> tie-break rule). gossip
// spreads one rumor from p_{n/2}; allconcur proposes v0…v(n−1). crashes maps
// each victim to its crash instant; gossip cells take none, since crashing
// the rumor source would make "everyone infected" vacuous.
func sparseScenario(t *testing.T, protocolName string, n int, crashes map[ProcID]time.Duration) Scenario {
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
		sc.Workload.Binary = make([]Value, n)
		sc.Workload.Binary[n/2] = One
	} else {
		for i := 0; i < n; i++ {
			sc.Workload.Values = append(sc.Workload.Values, fmt.Sprintf("v%d", i))
		}
	}
	if crashes != nil {
		sc.Faults = NewSchedule(n)
		for p, at := range crashes {
			if err := sc.Faults.SetTimed(p, at); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sc
}

// TestShardedReplaySparse extends the replay gate to the sparse overlay
// family: gossip and allconcur route their per-recipient sends through the
// sharded burst path (netsim.BurstSend / BurstSendVia), whose per-shard delay
// draws and flush-time sequence reservation must — like the SendAll path's —
// replay to a bit-identical Outcome.
func TestShardedReplaySparse(t *testing.T) {
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
				var crashes map[ProcID]time.Duration
				if protocolName == ProtocolAllConcur {
					at := 150 * time.Microsecond
					crashes = map[ProcID]time.Duration{ProcID(n / 10): at, ProcID(n / 2): at}
				}
				ref := runAndReplay(t, sparseScenario(t, protocolName, n, crashes))
				requireLive(t, ref)
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
