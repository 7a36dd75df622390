package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"weak"

	"allforone/internal/coin"
	"allforone/internal/driver"
	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/protocol"
	"allforone/internal/sim"
	"allforone/internal/trace"
	"allforone/internal/vclock"
)

// recycleCell is one run of TestRecycledRoundMachineCarriesNothing: a
// Variant no Scenario expresses. build makes the run's inputs afresh, each a
// heap object of its own, reports a weak pointer to every one through watch,
// and returns them with the variant to run them on.
type recycleCell struct {
	name  string
	build func(watch func(what string, alive func() bool)) (protocol.Scenario, Variant)
}

// memoryStep is the state of a flat variant's memory step: a heap object
// the step's closure refers to, so a kept closure would keep it reachable.
type memoryStep struct {
	calls int
	_     *memoryStep
}

// recycleCells are the runs of TestRecycledRoundMachineCarriesNothing, in
// the order they hand the kept state on: the two ablations, rigged local
// and common coins, a flat variant with a memory step, and a hybrid run its
// step budget cuts mid-exchange, its processes holding votes for later
// exchanges.
func recycleCells() []recycleCell {
	// inputs builds a fresh partition of n processes in m blocks, fresh
	// proposals (32 bytes, out of reach of the tiny allocator, which could
	// pack them with a live neighbour), a trace log and a crash schedule
	// with one timed crash, and watches each.
	inputs := func(watch func(string, func() bool), n, m int) protocol.Scenario {
		part, err := model.Blocks(n, m)
		if err != nil {
			panic(err)
		}
		props := make([]model.Value, n, 32)
		for p := range props {
			props[p] = model.Value(p % 2)
		}
		log := trace.New()
		sched := failures.NewSchedule(n)
		if err := sched.SetTimed(model.ProcID(n-1), 90*time.Microsecond); err != nil {
			panic(err)
		}
		wp, wv, wl, ws := weak.Make(part), weak.Make(&props[0]), weak.Make(log), weak.Make(sched)
		watch("partition", func() bool { return wp.Value() != nil })
		watch("proposals", func() bool { return wv.Value() != nil })
		watch("trace log", func() bool { return wl.Value() != nil })
		watch("crash schedule", func() bool { return ws.Value() != nil })
		return protocol.Scenario{
			Topology:  protocol.Topology{Partition: part},
			Workload:  protocol.Workload{Binary: props},
			Algorithm: AlgoLocalCoin,
			Seed:      int64(n*10 + m),
			Faults:    sched,
			Profile:   protocol.Uniform(0, 200*time.Microsecond),
			Trace:     log,
			Bounds:    protocol.Bounds{MaxRounds: 10_000},
		}
	}
	return []recycleCell{
		{name: "closure ablation", build: func(watch func(string, func() bool)) (protocol.Scenario, Variant) {
			return inputs(watch, 9, 3), hybridWith(func(v *Variant) { v.AblateClosure = true })
		}},
		{name: "cluster-consensus ablation", build: func(watch func(string, func() bool)) (protocol.Scenario, Variant) {
			return inputs(watch, 7, 2), hybridWith(func(v *Variant) { v.AblateClusterConsensus = true })
		}},
		{name: "rigged local coins", build: func(watch func(string, func() bool)) (protocol.Scenario, Variant) {
			return inputs(watch, 7, 3), hybridWith(func(v *Variant) {
				v.LocalCoinOverride = func(p model.ProcID) coin.Local {
					c := coin.NewFixedLocal(model.Value(p%2), model.One)
					w := weak.Make(c)
					watch(fmt.Sprintf("local coin of %v", p), func() bool { return w.Value() != nil })
					return c
				}
			})
		}},
		{name: "rigged common coin", build: func(watch func(string, func() bool)) (protocol.Scenario, Variant) {
			sc := inputs(watch, 7, 4)
			c := coin.NewFixedCommon(model.Zero, model.One)
			w := weak.Make(c)
			watch("common coin", func() bool { return w.Value() != nil })
			sc.Algorithm = AlgoCommonCoin
			return sc, hybridWith(func(v *Variant) { v.CommonCoinOverride = c })
		}},
		{name: "memory step", build: func(watch func(string, func() bool)) (protocol.Scenario, Variant) {
			sc := inputs(watch, 5, 5)
			mem := &memoryStep{}
			w := weak.Make(mem)
			watch("memory step", func() bool { return w.Value() != nil })
			return sc, Variant{
				Memory: func(_ model.ProcID, _, _ int, est model.Value) model.Value {
					mem.calls++
					return est
				},
				NetSalt:            0x51,
				SubsetSalt:         0x52,
				ErrInvariantBroken: ErrInvariantBroken,
			}
		}},
		{name: "cut mid-exchange", build: func(watch func(string, func() bool)) (protocol.Scenario, Variant) {
			sc := inputs(watch, 7, 3)
			sc.Bounds.MaxSteps = 30
			return sc, Hybrid
		}},
	}
}

// runCell runs c once on inputs built afresh and returns the Result (nil on
// an error) and the error's text.
func runCell(c recycleCell, watch func(string, func() bool)) (*Result, string) {
	res, err := RunVariant(c.build(watch))
	if err != nil {
		return nil, err.Error()
	}
	w := weak.Make(res)
	watch("Result", func() bool { return w.Value() != nil })
	return res, ""
}

// TestRecycledRoundMachineCarriesNothing: the execution state a run leaves
// on the recycled scheduler (driver.Keep) carries nothing of the run into
// the next. Once a run has returned and its caller dropped what it gave and
// got, nothing of it stays reachable — no Partition, proposal slice,
// trace.Log, crash schedule, coin, memory step or Result — and the kept
// state holds its storage alone: no input, network, coin or Result, and no
// process record pointing anywhere. Runs no Scenario expresses — the two
// ablations, rigged local and common coins, a flat variant with a memory
// step, a run cut mid-exchange with votes held — give, back to back on
// recycled state, the Results they give on a drained pool. Payloads never
// reach the kept state: a held vote is a copy of its message's fields.
func TestRecycledRoundMachineCarriesNothing(t *testing.T) {
	cells := recycleCells()
	type ran struct {
		res *Result
		err string
	}
	fresh := make([]ran, len(cells))
	for i, c := range cells {
		runtime.GC()
		runtime.GC() // a pool's content survives one collection in its victim cache
		res, err := runCell(c, func(string, func() bool) {})
		fresh[i] = ran{res, err}
	}

	found := false
	for attempt := 0; attempt < 20 && !found; attempt++ {
		var watched []string
		var alive []func() bool
		watch := func(what string, f func() bool) {
			watched, alive = append(watched, what), append(alive, f)
		}
		for i, c := range cells {
			res, err := runCell(c, func(what string, f func() bool) { watch(c.name+": "+what, f) })
			if err != fresh[i].err || !reflect.DeepEqual(res, fresh[i].res) {
				t.Fatalf("%s: on recycled state the run gave %+v (%q), on a drained pool %+v (%q)",
					c.name, res, err, fresh[i].res, fresh[i].err)
			}
		}
		// The scheduler the last run recycled is in the pool (under -race
		// the pool drops a share of its Puts). Draw it at once: a goroutine
		// that moves to another P, as one may across a collection, cannot
		// take back what it put in its old P's private slot.
		env, _ := vclock.New().Kept(vclock.KeepProtocol).(*execEnv)
		runtime.GC()
		for i, f := range alive {
			if f() {
				t.Fatalf("%s of a finished run is still reachable", watched[i])
			}
		}
		if env == nil {
			continue
		}
		found = true
		checkReleased(t, env)
	}
	if !found {
		t.Fatal("the scheduler pool never handed back the kept execution state")
	}
}

// checkReleased fails unless env holds nothing but its storage: no input,
// counter, network, coin or Result, empty CONS arrays, and process records
// that point nowhere and hold no vote.
func checkReleased(t *testing.T, env *execEnv) {
	t.Helper()
	kept := *env
	kept.arrays, kept.procs, kept.quorums = nil, nil, model.QuorumSlab{}
	if !reflect.ValueOf(kept).IsZero() {
		t.Fatalf("the kept execution state holds more than its storage: %+v", kept)
	}
	for x, a := range env.arrays[:cap(env.arrays)] {
		if a.Allocations() != 0 || a.Invocations() != 0 {
			t.Fatalf("kept CONS array %d holds %d objects and %d invocations of its run", x, a.Allocations(), a.Invocations())
		}
	}
	buffers := 0
	for i, p := range env.procs[:cap(env.procs)] {
		if len(p.pending) != 0 {
			t.Fatalf("kept process record %d holds %d votes of its run", i, len(p.pending))
		}
		if cap(p.pending) > 0 {
			buffers++
		}
		p.pending = nil
		if !reflect.ValueOf(p).IsZero() {
			t.Fatalf("kept process record %d holds %+v", i, p)
		}
	}
	if buffers == 0 {
		t.Fatal("no kept process record keeps a held-vote buffer; the test checks none")
	}
}

// TestKeptSlabsFollowTheRun: the storage an env keeps never outgrows what
// the run taking it can use. After a dense run (Blocks(1024, 10), every
// process holding a full exchange of votes), the run of n = 7 that takes the
// env gets a process slab, held-vote buffers and CONS arrays of at most
// slabSlack times its own need, and its Quorums on words the size of its own
// (the rule model.QuorumSlab applies; TestQuorumSlabFollowsTheRun). Between
// runs of one size the storage is reused, not remade.
func TestKeptSlabsFollowTheRun(t *testing.T) {
	dense, err := model.Blocks(1024, 10)
	if err != nil {
		t.Fatal(err)
	}
	take := func(kept *execEnv, part *model.Partition) *execEnv {
		sc := protocol.Scenario{Topology: protocol.Topology{Partition: part}, Workload: protocol.Workload{Binary: make([]model.Value, part.N())}, Algorithm: AlgoLocalCoin}
		setup := sim.Setup{}
		env := takeEnv(kept, &sc, &setup, &Hybrid)
		for i := range env.procs {
			env.newProc(i, &driver.Handle{})
		}
		return env
	}
	env := take(nil, dense)
	for i := range env.procs {
		p := &env.procs[i]
		p.pending = append(p.pending, make([]heldVote, env.n)...)
	}
	env.release()

	const n, m = 7, 3
	env = take(env, model.Fig1Right())
	if c := cap(env.procs); c > slabSlack*n {
		t.Errorf("a run of %d processes takes a slab of %d process records", n, c)
	}
	for i := range env.procs {
		if c := cap(env.procs[i].pending); c > slabSlack*n {
			t.Errorf("process %d of %d takes a held-vote buffer of %d votes", i, n, c)
		}
	}
	if c := cap(env.arrays); c > slabSlack*m {
		t.Errorf("a run over %d clusters takes %d CONS arrays", m, c)
	}

	procs, arrays := &env.procs[0], &env.arrays[0]
	env.procs[0].pending = append(env.procs[0].pending, heldVote{round: 1})
	buf := &env.procs[0].pending[0]
	env.release()
	env = take(env, model.Fig1Left())
	if &env.procs[0] != procs || &env.arrays[0] != arrays || len(env.procs[0].pending) != 0 || &env.procs[0].pending[:1][0] != buf {
		t.Error("a run of the same size did not take the kept slab, arrays and held-vote buffer, emptied")
	}
}
