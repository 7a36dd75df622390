package core

// The paper's reduction (§III-B, §IV): with every cluster a single process,
// Algorithm 2 is Ben-Or's algorithm and Algorithm 3 the message-passing
// common-coin algorithm. The flat variants the baselines run on are that
// reduction with the cluster step dropped and the Quorum replaced by counts.

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"allforone/internal/model"
	"allforone/internal/protocol"
)

// TestSingletonsReduceToFlatVariant runs each algorithm crash-free on
// model.Singletons(n) and as the flat variant on the hybrid model's own
// seeds: the runs agree on every process outcome, the engine record and
// every counter but the cluster consensus invocations the flat variant does
// not make.
func TestSingletonsReduceToFlatVariant(t *testing.T) {
	t.Parallel()
	flat := Hybrid
	flat.cluster = false
	for _, alg := range algorithms {
		for _, n := range []int{1, 4, 7, 12} {
			t.Run(fmt.Sprintf("%v/n=%d", alg, n), func(t *testing.T) {
				t.Parallel()
				part := model.Singletons(n)
				for seed := int64(1); seed <= 120; seed++ {
					props := make([]model.Value, n)
					for i := range props {
						props[i] = model.Value((int64(i) + seed) % 2)
					}
					sc := protocol.Scenario{
						Topology:  protocol.Topology{Partition: part},
						Workload:  protocol.Workload{Binary: props},
						Algorithm: alg,
						Seed:      seed,
						Profile:   protocol.Uniform(0, 200*time.Microsecond),
						Bounds:    protocol.Bounds{MaxRounds: 10_000},
					}
					want, err := RunVariant(sc, Hybrid)
					if err != nil {
						t.Fatalf("seed %d: RunVariant: %v", seed, err)
					}
					got, err := RunVariant(sc, flat)
					if err != nil {
						t.Fatalf("seed %d: RunVariant: %v", seed, err)
					}
					if want.Metrics.ConsInvocations == 0 {
						t.Fatalf("seed %d: the hybrid run made no cluster consensus step", seed)
					}
					want.Metrics.ConsInvocations = 0
					if !reflect.DeepEqual(got.Procs, want.Procs) || got.Engine != want.Engine || got.Metrics != want.Metrics {
						t.Fatalf("seed %d: flat variant %+v\ndiffers from the hybrid run on singletons %+v", seed, got, want)
					}
				}
			})
		}
	}
}

// TestCountsAgreeWithQuorum feeds seeded random vote streams — each sender
// at most once per exchange, as the network delivers them — to counts and
// to a model.Quorum over Singletons(n), and compares the two after every
// Add.
func TestCountsAgreeWithQuorum(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(0xc0417, 0x5))
	for _, n := range []int{1, 2, 3, 4, 7, 12, 65} {
		q := &model.NewQuorums(model.Singletons(n), 1)[0]
		c := &counts{n: int32(n)}
		for stream := 0; stream < 50; stream++ {
			q.Reset()
			c.Reset()
			for k, sender := range rng.Perm(n)[:1+rng.IntN(n)] {
				v := model.Value(rng.IntN(3) - 1)
				q.Add(model.ProcID(sender), v)
				c.Add(model.ProcID(sender), v)
				qv, qok := q.Majority()
				cv, cok := c.Majority()
				if q.Covered() != c.Covered() || qv != cv || qok != cok || !slices.Equal(q.Received(), c.Received()) {
					t.Fatalf("n=%d stream %d after %d votes: counts (%v, %v %v, %v) differ from Quorum (%v, %v %v, %v)",
						n, stream, k+1, c.Covered(), cv, cok, c.Received(), q.Covered(), qv, qok, q.Received())
				}
			}
		}
	}
}

func TestTallyHelpers(t *testing.T) {
	t.Parallel()
	tl := counts{n: 5}
	tl.Add(0, model.Zero)
	tl.Add(1, model.Zero)
	tl.Add(2, model.Bot)
	if v, ok := tl.Majority(); ok {
		t.Errorf("Majority = %v, want none (2 of 5)", v)
	}
	tl.Add(3, model.Zero)
	if v, ok := tl.Majority(); !ok || v != model.Zero {
		t.Errorf("Majority = %v,%v, want 0,true", v, ok)
	}
	if rec := tl.Received(); !slices.Equal(rec, []model.Value{model.Zero, model.Bot}) {
		t.Errorf("Received = %v, want [0 ⊥]", rec)
	}
}
