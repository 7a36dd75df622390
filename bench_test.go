package allforone

// Two root benchmarks of the public API: the virtual engine at large n and
// the Scenario compile path's per-run cost. The experiment tables are
// `go run ./cmd/hybridbench` (EXPERIMENTS.md); speed is measured by bench/
// (BENCHMARK.json).

import (
	"fmt"
	"testing"
	"time"

	"allforone/internal/core"
	"allforone/internal/protocol"
)

// BenchmarkVirtualEngineLargeN profiles the discrete-event engine — the
// vclock timer wheel, the fanout delivery path and the inline handlers — at
// n in the hundreds and beyond:
// one common-coin run pushes Θ(n²) delayed messages per round through the
// scheduler. This is the scaling guard for the ROADMAP's n≫32 goal;
// steps/op counts processed scheduler events (fanout batching makes it
// sublinear in messages when arrival instants coincide), and allocs/op is
// the zero-alloc delivery-path gate: the heap→wheel+pooling refactor cut
// it from ~2 allocations per message to a per-run constant (DESIGN.md §3, §4).
func BenchmarkVirtualEngineLargeN(b *testing.B) {
	for _, n := range []int{128, 256, 512, 1024, 4096, 8192} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if n >= 8192 && testing.Short() {
				b.Skip("n=8192 pushes ~500M messages per run; skipped under -short")
			}
			b.ReportAllocs()
			part, err := Blocks(n, n/8)
			if err != nil {
				b.Fatal(err)
			}
			props := make([]Value, n)
			for i := range props {
				props[i] = One
			}
			var steps, msgs float64
			for i := 0; i < b.N; i++ {
				sc := Scenario{
					Protocol:  ProtocolHybrid,
					Topology:  Topology{Partition: part},
					Workload:  Workload{Binary: props},
					Algorithm: AlgoCommonCoin,
					Profile:   UniformProfile(50*time.Microsecond, 2*time.Millisecond),
					Seed:      int64(i),
					Bounds:    Bounds{MaxRounds: 10_000},
				}
				res, err := Run(sc)
				if err != nil {
					b.Fatal(err)
				}
				if vs := Check(sc, res); vs != nil || !res.AllLiveDecided() {
					b.Fatalf("crash-free run did not decide: %v", vs)
				}
				steps += float64(res.Steps)
				msgs += float64(res.Metrics.MsgsSent)
			}
			b.ReportMetric(steps/float64(b.N), "steps/op")
			b.ReportMetric(msgs/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkScenarioOverhead guards the registry path of the Scenario API:
// the scenario variant runs the identical consensus execution through
// registry lookup and validation, and must add no measurable per-run cost
// over calling the round machine (core.RunVariant) directly. Compare the
// two sub-benchmarks' ns/op — the delta is the API tax, and it should be
// noise.
func BenchmarkScenarioOverhead(b *testing.B) {
	part := Fig1Left()
	props := []Value{One, One, One, One, One, One, One}

	b.Run("direct-variant", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.RunVariant(Scenario{
				Topology:  Topology{Partition: part},
				Workload:  Workload{Binary: props},
				Algorithm: core.AlgoCommonCoin,
				Seed:      int64(i),
				Bounds:    Bounds{MaxRounds: 10_000},
			}, core.Hybrid)
			if err != nil {
				b.Fatalf("core.RunVariant: %v", err)
			}
			if !protocol.BinaryOutcome(core.ProtocolName, res).AllLiveDecided() {
				b.Fatal("crash-free run did not decide")
			}
		}
	})

	b.Run("scenario", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := Run(Scenario{
				Protocol: ProtocolHybrid,
				Topology: Topology{Partition: part},
				Workload: Workload{Binary: props},
				Seed:     int64(i),
				Bounds:   Bounds{MaxRounds: 10_000},
			})
			if err != nil {
				b.Fatalf("Run: %v", err)
			}
			if !out.AllLiveDecided() {
				b.Fatal("crash-free run did not decide")
			}
		}
	})
}
