package allforone

// Gates on the small-run hot path: what one paper-sized trial may allocate,
// and that the engine a finished run hands to the next — its scheduler, with
// the network, inboxes and event pools riding on it (DESIGN.md §3) —
// carries nothing from one run into the next.

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
// (seed 3: one round, 38 events). Achieved: 14 allocations and 4.1 KB per
// run, from 15 and 4.6 KB while every run made its process records afresh,
// from 16 and 5.2 KB while every process held its own pointers to the
// run's network, coin, crash schedule, counters and trace, and every run
// built a common coin; from 102 and 7.9 KB while every process bought its
// own state, coin, Quorum, pending map and dispatch closure, every broadcast
// boxed its payload and every network option was a closure; from 222 and
// 15.7 KB while every run built its scheduler, network, inboxes and event
// pools afresh, its subset RNGs up front and its local coins as three
// objects each; and from 388 and 30.8 KB before the first per-run diet
// (pooled bucket array, dense supporters table, CONS_x[r,ph] as a plain map
// of CAS objects). The limits leave at least 15 % of headroom, so the diet
// cannot rot unnoticed.
func TestPaperTrialAllocationGate(t *testing.T) {
	checkAllocBill(t, "one paper trial", paperTrial(3), 200, 18, 6_000)
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
// (seed 2); both run on core's round machine. Ben-Or, 4 rounds and 372
// events: 15 allocations and 3.3 KB per run (16 and 3.7 KB while every run
// made its process records afresh), from 16 and 4.7 KB on a round
// machine of its own, from 125 and 7.7 KB with per-process objects and boxed
// payloads (see TestPaperTrialAllocationGate), from 244 and 15.3 KB while
// every run built its engine afresh, and from 458 and 28.5 KB while every
// exchange built a map tally and received() a slice. mpcoin, 3 rounds and
// 132 events: 14 allocations and 3.1 KB (15 and 3.5 KB with fresh records),
// from 15 and 3.4 KB on a round
// machine of its own (the shared process is larger than mpcoin's was), from
// 72 and 5.1 KB with per-process objects, from 178 and 12.9 KB with a fresh
// engine, and from 245 and 18.9 KB as a coroutine body with a map tally per
// round. The limits leave 10 to 15 % of headroom.
func TestBaselineAllocationGate(t *testing.T) {
	checkAllocBill(t, "one benor trial", baselineTrial(ProtocolBenOr, 2), 200, 18, 5_400)
	checkAllocBill(t, "one mpcoin trial", baselineTrial(ProtocolMPCoin, 2), 200, 17, 3_850)
}

// TestSMRAllocationGate pins the allocation bill of one replicated log in
// the kvlog regime: Fig1Right, 16 slots, queues of 16 commands,
// Uniform(50µs,500µs), seed 1: 10,996 events, at most 80 rounds per
// replica. Achieved: 1,845 allocations and 117 KB per run, from 1,852 and
// 118 KB with a copy of each replica's queue, from 2,152 and 123 KB with
// per-replica objects, closures and Quorum headers and closure-valued
// options, from 2,461 and 150 KB while every run built its engine afresh,
// and from 4,301 and 266 KB as a coroutine body with a map tally per round
// and its slot state in maps. The limits leave about 15 %
// of headroom.
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
	}, 200, 2_130, 136_000)
}

// TestMultivaluedAllocationGate pins the allocation bill of one
// multivalued consensus run: Fig1Right, three distinct proposals,
// Uniform(0,200µs), seed 1: 535 events, at most 7 binary rounds per
// process. Achieved: 189 allocations and 14.8 KB per run on smr's replica
// machine as a one-slot log, from 182 and 13.3 KB on a map-based reactor of
// its own, from 246 and 14.6 KB with per-process objects, closures and
// Quorum headers, from 492 and 35.6 KB while every run built its engine
// afresh, and from 773 and 48.8 KB while every round built a map tally and a
// ProcSet per value instead of resetting one model.Quorum per process. The
// limits leave about 10 % of headroom in allocations but only about 3 % in
// bytes: the replica's slot rows and wider slot-tagged messages cost bytes.
func TestMultivaluedAllocationGate(t *testing.T) {
	props := make([]string, Fig1Right().N())
	for p := range props {
		props[p] = fmt.Sprintf("v%d", p%3)
	}
	checkAllocBill(t, "one multivalued run", Scenario{
		Protocol: ProtocolMultivalued,
		Topology: Topology{Partition: Fig1Right()},
		Workload: Workload{Values: props},
		Profile:  UniformProfile(0, 200*time.Microsecond),
		Seed:     1,
	}, 200, 209, 15_300)
}

// TestRegisterAllocationGate pins the allocation bill of one scripted
// register run: Fig1Right, the closure table's scripts (18 operations, 36
// collections), Uniform(0,200µs), seed 1: 559 events. Achieved: 198
// allocations and 14.3 KB per run, from 239 and 15.7 KB with per-process
// objects, closures and Quorum headers, from 415 and 33.9 KB while every
// run built its engine afresh, and from 466 and 34.3 KB while every
// collection built a fresh ProcSet instead of resetting one model.Quorum
// per process. The limits leave about 15 % of headroom.
func TestRegisterAllocationGate(t *testing.T) {
	scripts := make([][]ScriptOp, Fig1Right().N())
	for p := range scripts {
		scripts[p] = registerScript(p)
	}
	checkAllocBill(t, "one register run", Scenario{
		Protocol: ProtocolRegister,
		Topology: Topology{Partition: Fig1Right()},
		Workload: Workload{Scripts: scripts},
		Profile:  UniformProfile(0, 200*time.Microsecond),
		Seed:     1,
	}, 200, 228, 16_500)
}

// gossipTrial is one crash-free gossip run at n=2048 on a de Bruijn
// overlay, one process proposing One, Uniform(0,200µs), seed 1303.
func gossipTrial() Scenario {
	const n = 2048
	w := Workload{Binary: make([]Value, n)}
	w.Binary[n/2] = One
	return Scenario{
		Protocol: ProtocolGossip,
		Topology: Topology{N: n, Overlay: &OverlaySpec{Kind: OverlayDeBruijn, Degree: DefaultOverlayDegree(n)}},
		Workload: w,
		Profile:  UniformProfile(0, 200*time.Microsecond),
		Seed:     1303,
	}
}

// TestGossipAllocationGate pins the allocation bill of one gossip run
// (gossipTrial): a scheduler sharded 16 ways, which Recycle hands to the
// next run with its bucket chunks, network and process slab. Achieved: 15
// allocations and 0.65 MB per run, from 461 and 7.4 MB while a sharded
// scheduler was never recycled and grew its buckets afresh every run, from
// 8,139 and 8.1 MB while every process had a heap Proc, a name past p255 and
// an inbox ring of its own beside its record, from 23,802 and 8.4 MB while
// every point-to-point message rode a pooled delivery object (a run grew
// about 15,700 of them), from 26,022 with a dispatch closure per process,
// and from 77,963 and 30.1 MB while each of the 256 buckets grew and kept an
// array of its own and every timer wake allocated a closure. The limits
// leave about 10 % of headroom.
func TestGossipAllocationGate(t *testing.T) {
	checkAllocBill(t, "one gossip run at n=2048", gossipTrial(), 20, 17, 720_000)
}

// denseTrial is the hybrid-dense regime of bench/: the hybrid local-coin
// algorithm at n=1024 on ten blocks, every process proposing One,
// Uniform(50µs, 2ms), and one timed crash at 60µs in each eighth of the id
// space, a minority everywhere, so every cluster keeps a live member.
func denseTrial(t *testing.T, seed int64) Scenario {
	t.Helper()
	const n = 1024
	part, err := Blocks(n, 10)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Binary: make([]Value, n)}
	for p := range w.Binary {
		w.Binary[p] = One
	}
	crashes := NewSchedule(n)
	for k := 0; k < 8; k++ {
		if err := crashes.SetTimed(ProcID(k*(n/8)+int(seed*37+int64(k)*53)%(n/8)), 60*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	return Scenario{
		Protocol:  ProtocolHybrid,
		Algorithm: AlgoLocalCoin,
		Topology:  Topology{Partition: part},
		Workload:  w,
		Faults:    crashes,
		Profile:   UniformProfile(50*time.Microsecond, 2*time.Millisecond),
		Seed:      seed,
		Bounds:    Bounds{MaxRounds: 10_000},
	}
}

// TestDenseAllocationGate pins what one dense sharded run allocates in
// steady state, on the scheduler and network the run before it handed back
// (denseTrial, seed 1): 8 shards, a 2 ms band, thousands of fanouts in
// flight when the run ends. Achieved: 2,340 allocations and 2.5–2.7 MB per
// run, from 49,477 and 20.1 MB while a sharded scheduler and its network
// were never recycled, so that every run grew its bucket arrays and made
// every fanout afresh. The limits leave about 10 % of headroom.
func TestDenseAllocationGate(t *testing.T) {
	checkAllocBill(t, "one dense run at n=1024", denseTrial(t, 1), 5, 2_600, 3_000_000)
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
// n=1024 (de Bruijn, two crashes mid-flood). The bill is the item
// slices — one exactly-sized slice per flush, a 12-byte item per 64-origin
// block of the delivered row that gained origins since the last flush —
// and the run's pooled state: 3.1–3.7 MB per run, from 5.8–6.3 MB while a
// sharded scheduler and its network were never recycled, from 45.0 MB when
// every forwarded origin was an item of its own in an outbox grown from nil
// after each flush, and 135.6 MB with the 40-byte items that carried a
// value string. The limit is 1.5× the larger achieved bill.
func TestAllconcurAllocationGate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are pinned without the race detector")
	}
	const (
		maxBytes = 5_600_000
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

// poolScenarios is a mixed batch on the recycled small-run path, ordered so
// that every run hands its scheduler and network to a run of another shape:
//   - n goes 7 → 3 → 9 → 7, so inboxes, the closed-inbox bitmap and the
//     recipient list shrink and grow;
//   - timed crashes close inboxes mid-run;
//   - mid-broadcast crashes with no DeliverTo draw the subset stream a
//     process builds at its one cut broadcast;
//   - MaxSteps cuts runs with fanouts and deliveries still in flight;
//   - shconsensus builds no network, so the network kept before it reaches
//     the run after it; smr, multivalued and register ride along;
//   - five sharded runs, each between two small ones, hand their chunks,
//     fanouts, shard buffers and process slab down to n = 7 and back up:
//     gossip at n = 2048 (per-recipient bursts over 16 shards), allconcur at
//     n = 1024 with two crashes, hybrid on Blocks(1024, 10) under bench's
//     dense band, hybrid at n = 256, and a dense run its step budget cuts
//     mid-window, with broadcasts queued and fanouts in flight.
func poolScenarios(t *testing.T) []Scenario {
	t.Helper()
	var scs []Scenario
	sharded := shardedPoolScenarios(t)
	for seed := int64(1); seed <= 2; seed++ {
		for _, n := range []int{7, 3, 9, 7} {
			topo := Topology{Partition: Fig1Right()}
			switch {
			case n == 7 && seed == 2:
				topo.Partition = Fig1Left()
			case n != 7:
				part, err := Blocks(n, n/3+1)
				if err != nil {
					t.Fatal(err)
				}
				topo.Partition = part
			}
			binary := make([]Value, n)
			values := make([]string, n)
			scripts := make([][]ScriptOp, n)
			cmds := make([][]string, n)
			for p := range binary {
				binary[p] = Value(p % 2)
				values[p] = fmt.Sprintf("v%d", p%3)
				scripts[p] = registerScript(p)
				cmds[p] = []string{fmt.Sprintf("set k%d=p%d", p%4, p), fmt.Sprintf("set k%d=p%d'", (p+1)%4, p)}
			}
			minority := func(c func(k int) (Crash, time.Duration)) *Schedule {
				sched := NewSchedule(n)
				for k := 0; k < (n-1)/2; k++ {
					var err error
					if crash, at := c(k); at > 0 {
						err = sched.SetTimed(ProcID(2*k+1), at)
					} else {
						err = sched.Set(ProcID(2*k+1), crash)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				return sched
			}
			timed := minority(func(k int) (Crash, time.Duration) { return Crash{}, time.Duration(k+1) * 37 * time.Microsecond })
			midBroadcast := minority(func(int) (Crash, time.Duration) {
				return Crash{At: CrashPoint{Round: 1, Phase: 1, Stage: StageMidBroadcast}}, 0
			})
			base := Scenario{
				Topology: topo,
				Workload: Workload{Binary: binary},
				Profile:  UniformProfile(0, 200*time.Microsecond),
				Seed:     seed*100 + int64(n),
				Bounds:   Bounds{MaxRounds: 10_000},
			}
			with := func(edit func(*Scenario)) {
				sc := base
				edit(&sc)
				scs = append(scs, sc)
			}
			with(func(sc *Scenario) { sc.Protocol, sc.Algorithm = ProtocolHybrid, AlgoLocalCoin })
			with(func(sc *Scenario) { sc.Protocol, sc.Algorithm, sc.Bounds.MaxSteps = ProtocolHybrid, AlgoCommonCoin, 5 })
			with(func(sc *Scenario) { sc.Protocol, sc.Algorithm, sc.Faults = ProtocolHybrid, AlgoLocalCoin, timed })
			with(func(sc *Scenario) {
				sc.Protocol, sc.Algorithm, sc.Faults = ProtocolHybrid, AlgoCommonCoin, midBroadcast
			})
			with(func(sc *Scenario) { sc.Protocol, sc.Topology, sc.Faults = ProtocolBenOr, Topology{N: n}, midBroadcast })
			with(func(sc *Scenario) { sc.Protocol, sc.Topology, sc.Faults = ProtocolMPCoin, Topology{N: n}, midBroadcast })
			with(func(sc *Scenario) {
				sc.Protocol, sc.Topology, sc.Bounds.MaxSteps = ProtocolMPCoin, Topology{N: n}, int64(2*n)
			})
			with(func(sc *Scenario) {
				sc.Protocol, sc.Topology, sc.Profile, sc.Faults = ProtocolSharedMem, Topology{N: n}, nil, timed
			})
			with(func(sc *Scenario) {
				sc.Protocol, sc.Workload, sc.Faults = ProtocolMultivalued, Workload{Values: values}, timed
			})
			with(func(sc *Scenario) {
				sc.Protocol, sc.Workload, sc.Bounds.MaxRounds = ProtocolSMR, Workload{Commands: cmds, Slots: 2}, 1000
			})
			with(func(sc *Scenario) {
				sc.Protocol, sc.Workload, sc.Bounds = ProtocolRegister, Workload{Scripts: scripts}, Bounds{}
			})
			if len(sharded) > 0 {
				scs, sharded = append(scs, sharded[0]), sharded[1:]
			}
		}
	}
	return scs
}

// shardedPoolScenarios are poolScenarios' sharded runs, in the order it
// interleaves them.
func shardedPoolScenarios(t *testing.T) []Scenario {
	t.Helper()
	const n = 256
	part, err := Blocks(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Binary: make([]Value, n)}
	for p := range w.Binary {
		w.Binary[p] = One
	}
	cut := denseTrial(t, 3)
	cut.Bounds.MaxSteps = 30_000
	return []Scenario{
		gossipTrial(),
		allconcurGoldenScenario(t, 1024, OverlayDeBruijn, "two-at-150us"),
		denseTrial(t, 2),
		{
			Protocol:  ProtocolHybrid,
			Algorithm: AlgoLocalCoin,
			Topology:  Topology{Partition: part},
			Workload:  w,
			Profile:   UniformProfile(0, 200*time.Microsecond),
			Seed:      1,
		},
		cut,
	}
}

// TestPooledStorageCarriesNoState: Outcomes must not depend on what the
// pool holds. The reference runs each scenario alone right after the pool
// was drained, so on an engine no earlier run touched, and holds it to
// Check; against it go the same scenarios back to back in one goroutine
// (each run's scheduler and network are the next run's) and through Sweep at
// parallelism 4. Under -race the pool drops a random share of its Puts, so
// repeated counts mix new and recycled engines.
func TestPooledStorageCarriesNoState(t *testing.T) {
	scs := poolScenarios(t)
	want := make([]*Outcome, len(scs))
	crashed := 0
	for i, sc := range scs {
		drainPools()
		out, err := Run(sc)
		if err != nil {
			t.Fatalf("scenario %d on fresh storage: %v", i, err)
		}
		if cut := sc.Bounds.MaxSteps > 0; out.BoundedOut() != cut {
			t.Fatalf("scenario %d: BoundedOut = %v, want %v", i, out.BoundedOut(), cut)
		}
		if vs := Check(sc, out); vs != nil {
			t.Fatalf("scenario %d (%s): %v", i, sc.Protocol, vs)
		}
		crashed += out.CountStatus(StatusCrashed)
		want[i] = out
	}
	if crashed == 0 {
		t.Fatal("no process crashed in the batch; its crash cells check nothing")
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
