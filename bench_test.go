package allforone

// One benchmark per experiment of the reproduction (E1…E8, DESIGN.md §5).
// Each iteration executes one seeded consensus run of the experiment's
// configuration and reports the paper's cost currencies as custom metrics
// (rounds/op, msgs/op, cons-inv/op). The full multi-trial tables are
// regenerated by `go run ./cmd/hybridbench` (see EXPERIMENTS.md).

import (
	"fmt"
	"testing"
	"time"

	"allforone/internal/core"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// benchRun executes one scenario and fails the benchmark on any
// configuration error or broken property.
func benchRun(b *testing.B, sc Scenario) *Outcome {
	b.Helper()
	out, err := Run(sc)
	if err != nil {
		b.Fatalf("Run: %v", err)
	}
	if vs := Check(sc, out); vs != nil {
		b.Fatal(vs)
	}
	return out
}

// hybridScenario is the hybrid-protocol scenario the experiments share.
func hybridScenario(part *Partition, props []Value, algo string, seed int64, maxRounds int) Scenario {
	return Scenario{
		Protocol:  ProtocolHybrid,
		Topology:  Topology{Partition: part},
		Workload:  Workload{Binary: props},
		Algorithm: algo,
		Seed:      seed,
		Bounds:    Bounds{MaxRounds: maxRounds},
	}
}

func reportRun(b *testing.B, rounds, msgs, consInv float64) {
	b.Helper()
	b.ReportMetric(rounds, "rounds/op")
	b.ReportMetric(msgs, "msgs/op")
	b.ReportMetric(consInv, "cons-inv/op")
}

// BenchmarkE1Fig1Decompositions regenerates E1: both Figure-1 layouts ×
// both algorithms, random proposals.
func BenchmarkE1Fig1Decompositions(b *testing.B) {
	parts := []struct {
		name string
		p    *Partition
	}{
		{"fig1-left", Fig1Left()},
		{"fig1-right", Fig1Right()},
	}
	for _, pc := range parts {
		for _, algo := range []string{AlgoLocalCoin, AlgoCommonCoin} {
			b.Run(fmt.Sprintf("%s/%v", pc.name, algo), func(b *testing.B) {
				var rounds, msgs, inv float64
				for i := 0; i < b.N; i++ {
					props := make([]Value, pc.p.N())
					for j := range props {
						props[j] = Value(int8((i + j) % 2))
					}
					res := benchRun(b, hybridScenario(pc.p, props, algo, int64(i), 10_000))
					if !res.AllLiveDecided() {
						b.Fatal("crash-free run did not decide")
					}
					rounds += float64(res.MaxDecisionRound())
					msgs += float64(res.Metrics.MsgsSent)
					inv += float64(res.Metrics.ConsInvocations)
				}
				n := float64(b.N)
				reportRun(b, rounds/n, msgs/n, inv/n)
			})
		}
	}
}

// BenchmarkE2MajorityCrash regenerates E2: 6 of 7 processes crash, one
// member of the majority cluster survives and must decide (hybrid), while
// the Ben-Or baseline blocks.
func BenchmarkE2MajorityCrash(b *testing.B) {
	part := Fig1Right()
	props := []Value{One, One, One, One, One, One, One}
	crashAt := CrashPoint{Round: 1, Phase: 1, Stage: StageRoundStart}
	for _, algo := range []string{AlgoLocalCoin, AlgoCommonCoin} {
		b.Run(fmt.Sprintf("hybrid/%v", algo), func(b *testing.B) {
			var rounds float64
			for i := 0; i < b.N; i++ {
				sched, err := CrashAllExcept(7, crashAt, 2)
				if err != nil {
					b.Fatal(err)
				}
				sc := hybridScenario(part, props, algo, int64(i), 1000)
				sc.Faults = sched
				res := benchRun(b, sc)
				if !res.AllLiveDecided() {
					b.Fatal("survivor did not decide despite majority cluster")
				}
				rounds += float64(res.MaxDecisionRound())
			}
			b.ReportMetric(rounds/float64(b.N), "rounds/op")
		})
	}
	b.Run("baseline/benor-blocks", func(b *testing.B) {
		blocked := 0
		for i := 0; i < b.N; i++ {
			sched, err := CrashAllExcept(7, crashAt, 2)
			if err != nil {
				b.Fatal(err)
			}
			res := benchRun(b, Scenario{
				Protocol: ProtocolBenOr,
				Topology: Topology{N: 7},
				Workload: Workload{Binary: props},
				Seed:     int64(i),
				Faults:   sched,
			})
			if _, _, ok := res.Decided(); ok {
				b.Fatal("Ben-Or decided despite 6/7 crashes")
			}
			blocked++
		}
		b.ReportMetric(float64(blocked)/float64(b.N), "blocked-runs/op")
	})
}

// BenchmarkE3CommonCoinRounds regenerates E3: the decision-round
// distribution of Algorithm 3 (expected ≈ 2).
func BenchmarkE3CommonCoinRounds(b *testing.B) {
	for _, mode := range []string{"unanimous", "split"} {
		b.Run(mode, func(b *testing.B) {
			part := Fig1Left()
			var rounds float64
			for i := 0; i < b.N; i++ {
				props := make([]Value, 7)
				for j := range props {
					if mode == "split" {
						props[j] = Value(int8(j % 2))
					} else {
						props[j] = One
					}
				}
				res := benchRun(b, hybridScenario(part, props, AlgoCommonCoin, int64(i)*97, 10_000))
				rounds += float64(res.MaxDecisionRound())
			}
			b.ReportMetric(rounds/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkE4RoundsVsClusters regenerates E4: local-coin rounds vs m at
// n=12 (m=1 shared-memory extreme … m=n Ben-Or).
func BenchmarkE4RoundsVsClusters(b *testing.B) {
	const n = 12
	for _, m := range []int{1, 2, 3, 4, 6, 12} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			part, err := Blocks(n, m)
			if err != nil {
				b.Fatal(err)
			}
			var rounds, msgs float64
			for i := 0; i < b.N; i++ {
				props := make([]Value, n)
				for j := range props {
					props[j] = Value(int8(j % 2))
				}
				res := benchRun(b, hybridScenario(part, props, AlgoLocalCoin, int64(i)*131+int64(m), 10_000))
				if !res.AllLiveDecided() {
					b.Fatal("crash-free run did not decide")
				}
				rounds += float64(res.MaxDecisionRound())
				msgs += float64(res.Metrics.MsgsSent)
			}
			b.ReportMetric(rounds/float64(b.N), "rounds/op")
			b.ReportMetric(msgs/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkE5ObjectInvocations regenerates E5: consensus-object cost per
// phase — hybrid m (1 per process) vs m&m n (α_i+1 per process).
func BenchmarkE5ObjectInvocations(b *testing.B) {
	b.Run("hybrid/fig1-left", func(b *testing.B) {
		part := Fig1Left()
		props := []Value{One, One, One, One, One, One, One}
		var inv float64
		for i := 0; i < b.N; i++ {
			res := benchRun(b, hybridScenario(part, props, AlgoLocalCoin, int64(i), 10))
			inv += float64(res.Metrics.ConsInvocations)
		}
		// Unanimous ⇒ 1 round, 2 phases, 7 processes ⇒ 14 invocations.
		b.ReportMetric(inv/float64(b.N), "cons-inv/op")
	})
	b.Run("mm/fig2", func(b *testing.B) {
		props := []Value{One, One, One, One, One}
		var inv float64
		for i := 0; i < b.N; i++ {
			res := benchRun(b, Scenario{
				Protocol: ProtocolMM,
				Topology: Topology{N: 5, MMEdges: Fig2Graph().EdgeList()},
				Workload: Workload{Binary: props},
				Seed:     int64(i),
				Bounds:   Bounds{MaxRounds: 10},
			})
			inv += float64(res.Metrics.ConsInvocations)
		}
		// Unanimous ⇒ 1 round, 2 phases, Σ(α_i+1)=15 ⇒ 30 invocations.
		b.ReportMetric(inv/float64(b.N), "cons-inv/op")
	})
}

// BenchmarkE6MessageComplexity regenerates E6: Θ(n²) messages per round.
func BenchmarkE6MessageComplexity(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := n / 4
			if m < 1 {
				m = 1
			}
			part, err := Blocks(n, m)
			if err != nil {
				b.Fatal(err)
			}
			props := make([]Value, n)
			for j := range props {
				props[j] = One
			}
			var msgs, norm float64
			for i := 0; i < b.N; i++ {
				res := benchRun(b, hybridScenario(part, props, AlgoCommonCoin, int64(i)*7, 1000))
				r := float64(res.MaxDecisionRound())
				msgs += float64(res.Metrics.MsgsSent)
				norm += float64(res.Metrics.MsgsSent) / (float64(n*n) * (r + 1))
			}
			b.ReportMetric(msgs/float64(b.N), "msgs/op")
			b.ReportMetric(norm/float64(b.N), "msgs-per-n2-round/op")
		})
	}
}

// BenchmarkE7ExtremeConfigs regenerates E7: the degenerate hybrid
// configurations against their native counterparts.
func BenchmarkE7ExtremeConfigs(b *testing.B) {
	const n = 6
	split := make([]Value, n)
	for j := range split {
		split[j] = Value(int8(j % 2))
	}
	b.Run("hybrid-m1", func(b *testing.B) {
		part := SingleCluster(n)
		for i := 0; i < b.N; i++ {
			res := benchRun(b, hybridScenario(part, split, AlgoLocalCoin, int64(i), 100))
			if res.MaxDecisionRound() != 1 {
				b.Fatal("m=1 must decide in round 1")
			}
		}
	})
	b.Run("native-shmem", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := benchRun(b, Scenario{
				Protocol: ProtocolSharedMem,
				Topology: Topology{N: n},
				Workload: Workload{Binary: split},
			})
			if !res.AllLiveDecided() {
				b.Fatal("shared memory did not decide")
			}
		}
	})
	b.Run("hybrid-mn", func(b *testing.B) {
		part := Singletons(n)
		var rounds float64
		for i := 0; i < b.N; i++ {
			res := benchRun(b, hybridScenario(part, split, AlgoLocalCoin, int64(i)*17, 10_000))
			rounds += float64(res.MaxDecisionRound())
		}
		b.ReportMetric(rounds/float64(b.N), "rounds/op")
	})
	b.Run("native-benor", func(b *testing.B) {
		var rounds float64
		for i := 0; i < b.N; i++ {
			res := benchRun(b, Scenario{
				Protocol: ProtocolBenOr,
				Topology: Topology{N: n},
				Workload: Workload{Binary: split},
				Seed:     int64(i) * 17,
				Bounds:   Bounds{MaxRounds: 10_000},
			})
			rounds += float64(res.MaxDecisionRound())
		}
		b.ReportMetric(rounds/float64(b.N), "rounds/op")
	})
}

// BenchmarkE9ExtensionStack regenerates E9: the extension layers
// (multivalued consensus, atomic register, replicated log) under the
// majority-crash pattern.
func BenchmarkE9ExtensionStack(b *testing.B) {
	crashAt := CrashPoint{Round: 1, Phase: 1, Stage: StageRoundStart}
	part := Fig1Right()
	b.Run("multivalued", func(b *testing.B) {
		props := []string{"a", "b", "c", "d", "e", "f", "g"}
		for i := 0; i < b.N; i++ {
			sched, err := CrashAllExcept(7, crashAt, 2)
			if err != nil {
				b.Fatal(err)
			}
			res := benchRun(b, Scenario{
				Protocol: ProtocolMultivalued,
				Topology: Topology{Partition: part},
				Workload: Workload{Values: props},
				Seed:     int64(i),
				Faults:   sched,
			})
			if res.Procs[2].Status != StatusDecided {
				b.Fatal("survivor did not decide")
			}
		}
	})
	b.Run("register", func(b *testing.B) {
		scripts := make([][]ScriptOp, 7)
		scripts[1] = []ScriptOp{ScriptWrite("pre")}
		scripts[2] = []ScriptOp{{After: 2 * time.Millisecond}} // a read, after the crashes
		for i := 0; i < b.N; i++ {
			res := benchRun(b, Scenario{
				Protocol: ProtocolRegister,
				Topology: Topology{Partition: part},
				Workload: Workload{Scripts: scripts},
				Seed:     int64(i),
				Faults:   crashAllButP3At(b, time.Millisecond),
			})
			ops := res.Raw.(*RegisterRunResult).Procs[2].Ops
			if len(ops) != 1 || !ops[0].OK || ops[0].Val != "pre" {
				b.Fatalf("survivor ops = %+v, want one read of \"pre\"", ops)
			}
		}
	})
	b.Run("log", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sched, err := CrashAllExcept(7, crashAt, 2)
			if err != nil {
				b.Fatal(err)
			}
			cmds := make([][]string, 7)
			for j := range cmds {
				cmds[j] = []string{"cmd"}
			}
			res := benchRun(b, Scenario{
				Protocol: ProtocolSMR,
				Topology: Topology{Partition: part},
				Workload: Workload{Commands: cmds, Slots: 3},
				Seed:     int64(i),
				Faults:   sched,
			})
			if len(res.Raw.(*LogResult).Replicas[2].Log) != 3 {
				b.Fatal("survivor did not complete the log")
			}
		}
	})
}

// BenchmarkE8Indulgence regenerates E8: dead failure patterns never yield a
// decision within the bounded run.
func BenchmarkE8Indulgence(b *testing.B) {
	part := Fig1Right()
	props := []Value{Zero, One, Zero, One, Zero, One, Zero}
	for i := 0; i < b.N; i++ {
		sched := NewSchedule(7)
		for _, p := range []ProcID{1, 2, 3, 4} { // wipe the majority cluster
			if err := sched.Set(p, Crash{
				At: CrashPoint{Round: 1, Phase: 1, Stage: StageRoundStart},
			}); err != nil {
				b.Fatal(err)
			}
		}
		sc := hybridScenario(part, props, AlgoLocalCoin, int64(i), 0)
		sc.Faults = sched
		if _, _, ok := benchRun(b, sc).Decided(); ok {
			b.Fatal("decided under a dead failure pattern")
		}
	}
}

// BenchmarkVirtualEngineLargeN profiles the discrete-event engine — the
// vclock timer wheel, the pooled fanout delivery path, the ring-buffer
// inboxes, and the coroutine handoff — at n in the hundreds and beyond:
// one common-coin run pushes Θ(n²) delayed messages per round through the
// scheduler. This is the scaling guard for the ROADMAP's n≫32 goal;
// steps/op counts processed scheduler events (fanout batching makes it
// sublinear in messages when arrival instants coincide), and allocs/op is
// the zero-alloc delivery-path gate: the heap→wheel+pooling refactor cut
// it from ~2 allocations per message to a per-run constant (DESIGN.md §10).
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
				sc := hybridScenario(part, props, AlgoCommonCoin, int64(i), 10_000)
				sc.Profile = UniformProfile(50*time.Microsecond, 2*time.Millisecond)
				res := benchRun(b, sc)
				if !res.AllLiveDecided() {
					b.Fatal("crash-free run did not decide")
				}
				steps += float64(res.Steps)
				msgs += float64(res.Metrics.MsgsSent)
			}
			b.ReportMetric(steps/float64(b.N), "steps/op")
			b.ReportMetric(msgs/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkScenarioOverhead guards the Scenario→Config compile path of
// the registry API (PR 3): the scenario variant runs the identical
// consensus execution through registry lookup + validation + compilation,
// and must add no measurable per-run cost over calling the protocol's
// Config entry point directly. Compare the two sub-benchmarks' ns/op —
// the delta is the API tax, and it should be noise.
func BenchmarkScenarioOverhead(b *testing.B) {
	part := Fig1Left()
	props := []Value{One, One, One, One, One, One, One}

	b.Run("direct-config", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.Run(core.Config{
				Partition: part,
				Proposals: props,
				Algorithm: core.CommonCoin,
				Setup:     sim.Setup{Seed: int64(i)},
				MaxRounds: 10_000,
			})
			if err != nil {
				b.Fatalf("core.Run: %v", err)
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
