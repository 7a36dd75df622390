package allforone

// Gates on the small-run hot path: what one paper-sized trial may allocate,
// and that the storage runs recycle through package-level pools (the
// scheduler's bucket array, DESIGN.md §4.1) carries nothing from one run
// into the next.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// paperTrial is one cell of the E1–E9 regime: the hybrid local-coin
// algorithm on the Fig. 1 right decomposition (n=7), split proposals,
// Uniform(0,200µs).
func paperTrial(seed int64) Scenario {
	return Scenario{
		Protocol:  ProtocolHybrid,
		Algorithm: AlgoLocalCoin,
		Topology:  Topology{Partition: Fig1Right()},
		Workload:  Workload{Binary: []Value{Zero, One, Zero, One, Zero, One, Zero}},
		Profile:   UniformProfile(0, 200*time.Microsecond),
		Seed:      seed,
		Bounds:    Bounds{MaxRounds: 10_000},
	}
}

// TestPaperTrialAllocationGate pins the allocation bill of one paper trial
// (seed 3: one round, 38 events). Achieved: 243 allocations and 17.9 KB per
// run, from 388 and 30.8 KB before the per-run diet (pooled bucket array,
// dense supporters table, CONS_x[r,ph] as a plain map of CAS objects); the
// limits leave about 15 % of headroom, so the diet cannot rot unnoticed.
func TestPaperTrialAllocationGate(t *testing.T) {
	checkAllocBill(t, "one paper trial", paperTrial(3), 200, 280, 20_600)
}

// baselineTrial is the paper trial's regime for a message-passing baseline:
// n=7, split proposals, Uniform(0,200µs).
func baselineTrial(protocol string, seed int64) Scenario {
	sc := paperTrial(seed)
	sc.Protocol, sc.Algorithm = protocol, ""
	sc.Topology = Topology{N: 7}
	return sc
}

// TestBaselineAllocationGate pins the allocation bill of one baseline trial
// (seed 2). Ben-Or, 4 rounds and 372 events: 265 allocations and 16.9 KB
// per run, from 458 and 28.5 KB while every exchange built a map tally and
// received() a slice. mpcoin, 3 rounds and 132 events: 184 allocations and
// 14.0 KB, from 245 and 18.9 KB as a coroutine body with a map tally per
// round. The limits leave about 15 % of headroom.
func TestBaselineAllocationGate(t *testing.T) {
	checkAllocBill(t, "one benor trial", baselineTrial(ProtocolBenOr, 2), 200, 305, 19_400)
	checkAllocBill(t, "one mpcoin trial", baselineTrial(ProtocolMPCoin, 2), 200, 212, 16_100)
}

// TestSMRAllocationGate pins the allocation bill of one replicated log in
// the kvlog regime: Fig1Right, 16 slots, queues of 16 commands,
// Uniform(50µs,500µs), seed 1: 10,996 events, at most 80 rounds per
// replica. Achieved: 2,460 allocations and 155 KB per run, from 4,301 and
// 266 KB as a coroutine body with a map tally per round and its slot state
// in maps. The limits leave about 15 % of headroom.
func TestSMRAllocationGate(t *testing.T) {
	n := Fig1Right().N()
	cmds := make([][]string, n)
	for p := range cmds {
		for c := 0; c < 16; c++ {
			cmds[p] = append(cmds[p], fmt.Sprintf("set k%d=p%d.%d", (p*16+c)%64, p, c))
		}
	}
	checkAllocBill(t, "one 16-slot log", Scenario{
		Protocol: ProtocolSMR,
		Topology: Topology{Partition: Fig1Right()},
		Workload: Workload{Commands: cmds, Slots: 16},
		Profile:  UniformProfile(50*time.Microsecond, 500*time.Microsecond),
		Seed:     1,
		Bounds:   Bounds{MaxRounds: 1000},
	}, 200, 2_830, 178_000)
}

// TestGossipAllocationGate pins the allocation bill of one crash-free gossip
// run at n=2048 on a de Bruijn overlay, seed 1303: a scheduler sharded 16
// ways, which owns its bucket array and so grows it afresh every run.
// Achieved: 26,281 allocations and 8.5 MB per run, from 77,963 and 30.1 MB
// while each of the 256 buckets grew and kept an array of its own and every
// timer wake allocated a closure. The limits leave about 15 % of headroom.
func TestGossipAllocationGate(t *testing.T) {
	const n = 2048
	w := Workload{Binary: make([]Value, n)}
	w.Binary[n/2] = One
	checkAllocBill(t, "one gossip run at n=2048", Scenario{
		Protocol: ProtocolGossip,
		Topology: Topology{N: n, Overlay: &OverlaySpec{Kind: OverlayDeBruijn, Degree: DefaultOverlayDegree(n)}},
		Workload: w,
		Profile:  UniformProfile(0, 200*time.Microsecond),
		Seed:     1303,
	}, 20, 30_200, 9_750_000)
}

// checkAllocBill fails unless one run of sc, averaged over runs runs,
// allocates at most maxAllocs objects and maxBytes bytes.
func checkAllocBill(t *testing.T, what string, sc Scenario, runs, maxAllocs, maxBytes int) {
	t.Helper()
	if testing.Short() {
		// -short is how CI runs the race pass, under which sync.Pool drops
		// a share of its Puts and the counts are not the product's.
		t.Skip("allocation counts are pinned without the race detector")
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := Run(sc); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&m1)
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs+1) // AllocsPerRun adds a warm-up call
	t.Logf("%s: %.0f allocations, %.0f bytes", what, allocs, bytes)
	if allocs > float64(maxAllocs) || bytes > float64(maxBytes) {
		t.Fatalf("%s allocates %.0f times / %.0f bytes, want ≤ %d / %d", what, allocs, bytes, maxAllocs, maxBytes)
	}
}

// TestAllconcurAllocationGate pins what one allconcur run allocates at
// n=1024 (de Bruijn, two crashes mid-flood). The bill is the
// outbox arrays — one per flush, holding every item copy the reactor
// forwards: 45.0 MB per run with 12-byte pointer-free items, from 135.6 MB
// with the 40-byte items that carried a value string. The limit leaves
// about 15 % of headroom.
func TestAllconcurAllocationGate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are pinned without the race detector")
	}
	const (
		maxBytes = 52_000_000
		runs     = 3
	)
	sc := allconcurGoldenScenario(t, 1024, OverlayDeBruijn, "two-at-150us")
	run := func() {
		if _, err := Run(sc); err != nil {
			t.Fatal(err)
		}
	}
	run() // warms the pools up
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	t.Logf("one allconcur run at n=1024: %.1f MB allocated", bytes/1e6)
	if bytes > maxBytes {
		t.Fatalf("one allconcur run at n=1024 allocates %.0f bytes, want ≤ %d", bytes, maxBytes)
	}
}

// drainPools empties every sync.Pool of the process: a pool's content
// survives one collection in its victim cache and is dropped by the second.
func drainPools() {
	runtime.GC()
	runtime.GC()
}

// poolScenarios is a small mixed batch on the pooled small-run path: both
// hybrid algorithms on both Fig. 1 decompositions plus the two baselines,
// and runs cut short by MaxSteps with events still pending in the wheel.
func poolScenarios() []Scenario {
	var scs []Scenario
	for seed := int64(1); seed <= 4; seed++ {
		for _, part := range []*Partition{Fig1Left(), Fig1Right()} {
			for _, algo := range []string{AlgoLocalCoin, AlgoCommonCoin} {
				sc := paperTrial(seed)
				sc.Algorithm = algo
				sc.Topology = Topology{Partition: part}
				scs = append(scs, sc)
				sc.Bounds.MaxSteps = 5
				scs = append(scs, sc)
			}
		}
		for _, name := range []string{ProtocolBenOr, ProtocolMPCoin} {
			scs = append(scs, baselineTrial(name, seed))
		}
	}
	return scs
}

// TestPooledStorageCarriesNoState: Outcomes must not depend on what the
// pools hold. The reference runs each scenario alone right after the pools
// were drained, so on storage no earlier run touched; against it go the
// same scenarios back to back in one goroutine (a cut-short run's bucket
// array is the next run's) and through Sweep at parallelism 4.
func TestPooledStorageCarriesNoState(t *testing.T) {
	scs := poolScenarios()
	want := make([]*Outcome, len(scs))
	for i, sc := range scs {
		drainPools()
		out, err := Run(sc)
		if err != nil {
			t.Fatalf("scenario %d on fresh storage: %v", i, err)
		}
		if cut := sc.Bounds.MaxSteps > 0; out.BoundedOut() != cut {
			t.Fatalf("scenario %d: BoundedOut = %v, want %v", i, out.BoundedOut(), cut)
		}
		want[i] = out
	}

	for i, sc := range scs {
		got, err := Run(sc)
		if err != nil {
			t.Fatalf("scenario %d back to back: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("scenario %d: Outcome on recycled storage differs from the fresh-storage run\n got %+v\nwant %+v",
				i, got, want[i])
		}
	}

	got, err := Sweep(scs, 4)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	for i := range scs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("scenario %d: Sweep Outcome differs from the fresh-storage run\n got %+v\nwant %+v",
				i, got[i], want[i])
		}
	}
}
