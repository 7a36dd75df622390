package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"allforone/internal/allconcur"
	"allforone/internal/benor"
	"allforone/internal/core"
	"allforone/internal/failures"
	"allforone/internal/gossip"
	"allforone/internal/model"
	"allforone/internal/mpcoin"
	"allforone/internal/overlay"
	"allforone/internal/protocol"
	"allforone/internal/smr"
)

// Host-side widths, pinned so that a number means the same thing on every
// machine with at least two CPUs (the sizing box has exactly two). Workers
// 2 is also what Workers = 0, the default, resolves to there; what the
// expansion pool gives over inline expansion (Workers = 1) is the layer
// metric vclock.pool_speedup.
const (
	maxProcs  = 2 // runtime.GOMAXPROCS
	workers   = 2 // Scenario.Workers: the in-run expansion pool
	sweepPar  = 2 // harness.Sweep parallelism
	maxRounds = 10_000
)

// scale holds every size knob of the five workloads. full is what
// BENCHMARK.json numbers are measured at; the smoke test shrinks it.
type scale struct {
	denseN, denseRuns int
	gossipN           int
	allconcurN        int
	smrSlots, smrRuns int
	trials            int
}

var full = scale{
	denseN: 1024, denseRuns: 6,
	gossipN:    10_000,
	allconcurN: 2048,
	smrSlots:   256, smrRuns: 4,
	trials: 2000,
}

// workload is one named, fixed, ordered scenario list: gen builds it, afresh
// on every call, from the scale and the benchmark seed alone.
type workload struct {
	name  string
	why   string
	sweep bool // executed through harness.Sweep instead of one protocol.Run per scenario
	gen   func(sc scale, seed uint64) []input
}

// input is one generated scenario plus what the oracle needs to judge it.
type input struct {
	sc      protocol.Scenario
	allowed []string // legal decisions; nil for smr, whose log is checked against its command queues
}

var workloads = []workload{
	{
		name: "hybrid-dense",
		why:  "the paper's Theta(n^2) all-to-all exchange at n=1024: the only workload on the sharded SendAll/fanJob path",
		gen:  genHybridDense,
	},
	{
		name: "gossip-sparse",
		why:  "crash-free gossip at n=10000 on a de Bruijn overlay: per-recipient BurstSend bound by the serial pop-deliver-handler chain",
		gen:  genGossipSparse,
	},
	{
		name: "allconcur-sparse",
		why:  "allconcur at n=2048 with two crashes: same transport as gossip-sparse but bound by protocol state (intervalSet) and the allocator",
		gen:  genAllconcurSparse,
	},
	{
		name: "smr-kvlog",
		why:  "a 256-slot replicated kv log at n=7 through two crashes: long-lived coroutine bodies on the unsharded sendFan path",
		gen:  genSMRKVLog,
	},
	{
		name:  "paper-trials",
		why:   "12000 independent n=7 trials through harness.Sweep: per-run set-up and small fanouts dominate, as in E1-E9 and the adversary search",
		sweep: true,
		gen:   genPaperTrials,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scenarioSeed is f(seed, index): a splitmix64 step, so neighbouring
// benchmark seeds and neighbouring indices give unrelated run seeds.
func scenarioSeed(seed uint64, index int) int64 {
	z := seed + uint64(index+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

var binaryDecisions = []string{"0", "1"}

func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("bench: generating inputs: %v", err))
	}
	return v
}

func genHybridDense(s scale, seed uint64) []input {
	n := s.denseN
	part := must(model.Blocks(n, 10))
	props := make([]model.Value, n)
	for i := range props {
		props[i] = model.One
	}
	ins := make([]input, s.denseRuns)
	for r := range ins {
		runSeed := scenarioSeed(seed, r)
		rng := rand.New(rand.NewPCG(uint64(runSeed), 1))
		// One victim per eighth of the id space: a minority everywhere, so
		// every cluster keeps a live member and the run stays live.
		sched := failures.NewSchedule(n)
		for k := 0; k < 8; k++ {
			victim := k*(n/8) + rng.IntN(n/8)
			if err := sched.SetTimed(model.ProcID(victim), 60*time.Microsecond); err != nil {
				panic(err)
			}
		}
		ins[r] = input{
			sc: protocol.Scenario{
				Protocol:  core.ProtocolName,
				Algorithm: core.AlgoLocalCoin,
				Topology:  protocol.Topology{Partition: part},
				Workload:  protocol.Workload{Binary: props},
				Faults:    sched,
				Profile:   protocol.Uniform(50*time.Microsecond, 2*time.Millisecond),
				Seed:      runSeed,
				Bounds:    protocol.Bounds{MaxRounds: maxRounds},
			},
			allowed: binaryDecisions,
		}
	}
	return ins
}

func genGossipSparse(s scale, seed uint64) []input {
	n := s.gossipN
	props := make([]model.Value, n)
	props[n/2] = model.One
	return []input{{
		sc: protocol.Scenario{
			Protocol: gossip.ProtocolName,
			Topology: protocol.Topology{N: n, Overlay: &overlay.Spec{Kind: overlay.KindDeBruijn}},
			Workload: protocol.Workload{Binary: props},
			Profile:  protocol.Uniform(0, 200*time.Microsecond),
			Seed:     scenarioSeed(seed, 0),
		},
		allowed: binaryDecisions,
	}}
}

func genAllconcurSparse(s scale, seed uint64) []input {
	n := s.allconcurN
	values := make([]string, n)
	for i := range values {
		values[i] = fmt.Sprintf("v%d", i)
	}
	sched := failures.NewSchedule(n)
	for _, victim := range []int{n / 10, n / 2} {
		if err := sched.SetTimed(model.ProcID(victim), 150*time.Microsecond); err != nil {
			panic(err)
		}
	}
	return []input{{
		sc: protocol.Scenario{
			Protocol: allconcur.ProtocolName,
			Topology: protocol.Topology{N: n, Overlay: &overlay.Spec{Kind: overlay.KindDeBruijn}},
			Workload: protocol.Workload{Values: values},
			Faults:   sched,
			Profile:  protocol.Uniform(0, 200*time.Microsecond),
			Seed:     scenarioSeed(seed, 0),
		},
		allowed: values, // every process decides the smallest value it delivered
	}}
}

func genSMRKVLog(s scale, seed uint64) []input {
	part := model.Fig1Right()
	n := part.N()
	ins := make([]input, s.smrRuns)
	for r := range ins {
		runSeed := scenarioSeed(seed, r)
		rng := rand.New(rand.NewPCG(uint64(runSeed), 2))
		cmds := make([][]string, n)
		for p := range cmds {
			cmds[p] = make([]string, s.smrSlots)
			for c := range cmds[p] {
				cmds[p][c] = fmt.Sprintf("set k%d=p%d.%d", rng.IntN(64), p+1, c)
			}
		}
		// p1 then p6: the majority cluster {p2..p5} survives, so the log
		// keeps committing through both crashes.
		sched := failures.NewSchedule(n)
		for victim, at := range map[int]time.Duration{0: 20 * time.Millisecond, 5: 40 * time.Millisecond} {
			if err := sched.SetTimed(model.ProcID(victim), at); err != nil {
				panic(err)
			}
		}
		ins[r] = input{sc: protocol.Scenario{
			Protocol: smr.ProtocolName,
			Topology: protocol.Topology{Partition: part},
			Workload: protocol.Workload{Commands: cmds, Slots: s.smrSlots},
			Faults:   sched,
			Profile:  protocol.Uniform(50*time.Microsecond, 500*time.Microsecond),
			Seed:     runSeed,
			Bounds:   protocol.Bounds{MaxRounds: maxRounds},
		}}
	}
	return ins
}

func genPaperTrials(s scale, seed uint64) []input {
	parts := []*model.Partition{model.Fig1Left(), model.Fig1Right()}
	const n = 7
	ins := make([]input, 0, 6*s.trials)
	for i := 0; i < s.trials; i++ {
		props := make([]model.Value, n)
		for p := range props {
			props[p] = model.Value((p + i) % 2)
		}
		add := func(sc protocol.Scenario) {
			sc.Workload = protocol.Workload{Binary: props}
			sc.Profile = protocol.Uniform(0, 200*time.Microsecond)
			sc.Seed = scenarioSeed(seed, len(ins))
			sc.Bounds = protocol.Bounds{MaxRounds: maxRounds}
			ins = append(ins, input{sc: sc, allowed: binaryDecisions})
		}
		for pi, part := range parts {
			for _, algo := range []string{core.AlgoLocalCoin, core.AlgoCommonCoin} {
				sc := protocol.Scenario{
					Protocol:  core.ProtocolName,
					Algorithm: algo,
					Topology:  protocol.Topology{Partition: part},
				}
				if pi == 1 && i%2 == 1 {
					// E2: everyone but one member of the majority cluster
					// crashes at the top of round 1; the survivor decides.
					sc.Faults = must(failures.CrashAllExcept(n,
						failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}, 2))
				}
				add(sc)
			}
		}
		add(protocol.Scenario{Protocol: benor.ProtocolName, Topology: protocol.Topology{N: n}})
		add(protocol.Scenario{Protocol: mpcoin.ProtocolName, Topology: protocol.Topology{N: n}})
	}
	return ins
}
