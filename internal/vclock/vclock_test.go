package vclock

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// Events fire in timestamp order, with schedule order breaking ties.
func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.At(10, func() { got = append(got, 4) }) // same instant as "1": later seq
	out := s.Run()
	want := []int{1, 4, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event order = %v, want %v", got, want)
	}
	if out.Now != 30 || out.Steps != 4 || out.Aborted() {
		t.Fatalf("outcome = %+v", out)
	}
}

// The virtual clock never flows backwards: an event scheduled in the past
// fires at the current instant.
func TestPastEventClampsToNow(t *testing.T) {
	s := New()
	var at Time
	s.At(100, func() {
		s.At(50, func() { at = s.Now() }) // "50" is already in the past
	})
	s.Run()
	if at != 100 {
		t.Fatalf("past event ran at %d, want 100", at)
	}
}

// A coroutine parks until woken by an event, observes the advanced clock,
// and finishes; Run reports a clean outcome.
func TestParkWake(t *testing.T) {
	s := New()
	var woke Time
	var p *Proc
	p = s.Spawn("consumer", func() {
		if !p.Park() {
			t.Error("Park reported abort")
			return
		}
		woke = s.Now()
	})
	s.At(42, func() { p.Wake() })
	out := s.Run()
	if woke != 42 {
		t.Fatalf("woke at %d, want 42", woke)
	}
	if out.Aborted() {
		t.Fatalf("outcome = %+v, want clean", out)
	}
	if !p.Done() {
		t.Fatal("coroutine not done after Run")
	}
}

// Coroutines resume in FIFO wake order, giving deterministic interleaving.
func TestWakeOrderFIFO(t *testing.T) {
	s := New()
	var got []string
	names := []string{"a", "b", "c"}
	procs := make([]*Proc, len(names))
	for i, name := range names {
		i, name := i, name
		procs[i] = s.Spawn(name, func() {
			if procs[i].Park() {
				got = append(got, name)
			}
		})
	}
	s.At(1, func() {
		procs[2].Wake()
		procs[0].Wake()
		procs[1].Wake()
	})
	s.Run()
	want := []string{"c", "a", "b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wake order = %v, want %v", got, want)
	}
}

// Quiescence: live coroutines with an empty event queue abort the run, and
// every parked coroutine observes Park() = false.
func TestQuiescenceAborts(t *testing.T) {
	s := New()
	unwound := 0
	for i := 0; i < 3; i++ {
		var p *Proc
		p = s.Spawn("stuck", func() {
			if !p.Park() {
				unwound++
			}
		})
	}
	out := s.Run()
	if !out.Quiesced {
		t.Fatalf("outcome = %+v, want Quiesced", out)
	}
	if unwound != 3 {
		t.Fatalf("unwound = %d, want 3", unwound)
	}
}

// The deadline aborts before processing events scheduled past it.
func TestDeadline(t *testing.T) {
	s := New(WithDeadline(100))
	ran := false
	late := false
	s.At(50, func() { ran = true })
	s.At(150, func() { late = true })
	out := s.Run()
	if !ran || late {
		t.Fatalf("ran=%v late=%v, want true/false", ran, late)
	}
	if !out.DeadlineExceeded {
		t.Fatalf("outcome = %+v, want DeadlineExceeded", out)
	}
	if out.Now != 50 {
		t.Fatalf("Now = %d, want 50", out.Now)
	}
}

// The step budget bounds runs that schedule events forever.
func TestMaxSteps(t *testing.T) {
	s := New(WithMaxSteps(10))
	var reschedule func()
	fired := 0
	reschedule = func() {
		fired++
		s.After(1, reschedule)
	}
	s.After(1, reschedule)
	out := s.Run()
	if !out.StepsExceeded {
		t.Fatalf("outcome = %+v, want StepsExceeded", out)
	}
	if fired != 10 {
		t.Fatalf("fired = %d, want 10", fired)
	}
}

// Two identical schedules produce identical histories — the determinism
// contract everything else is built on.
func TestDeterminism(t *testing.T) {
	trace := func() []Time {
		s := New()
		var log []Time
		var producer, consumer *Proc
		consumer = s.Spawn("consumer", func() {
			for i := 0; i < 5; i++ {
				if !consumer.Park() {
					return
				}
				log = append(log, s.Now())
			}
		})
		producer = s.Spawn("producer", func() {
			for i := 1; i <= 5; i++ {
				d := Time(i * 7)
				s.After(d, func() { consumer.Wake() })
			}
		})
		_ = producer
		s.Run()
		return log
	}
	a, b := trace(), trace()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("runs diverged: %v vs %v", a, b)
	}
	if len(a) != 5 {
		t.Fatalf("log = %v, want 5 wakeups", a)
	}
}

// Waking a coroutine that is not parked is a harmless no-op, and the
// wake-then-recheck protocol never loses a wakeup.
func TestWakeNotParkedIsNoop(t *testing.T) {
	s := New()
	items := 0
	var p *Proc
	p = s.Spawn("consumer", func() {
		for items < 2 {
			if !p.Park() {
				return
			}
		}
	})
	s.At(1, func() { items += 2; p.Wake(); p.Wake() }) // second Wake hits a runnable proc
	out := s.Run()
	if out.Aborted() {
		t.Fatalf("outcome = %+v, want clean", out)
	}
	if items != 2 {
		t.Fatalf("items = %d, want 2", items)
	}
}

// Once every spawned coroutine has finished, the run ends at the instant of
// the last step: leftover events are dropped, not drained — they must not
// advance the reported clock. (Schedulers with no coroutines still drain
// the heap completely, as TestEventOrdering shows.)
func TestRunEndsWhenLastCoroutineFinishes(t *testing.T) {
	s := New()
	var p *Proc
	p = s.Spawn("worker", func() {
		if !p.Park() {
			t.Error("unexpected abort")
		}
	})
	s.At(5, func() { p.Wake() })
	fired := false
	s.At(1_000_000, func() { fired = true }) // stale: nobody is left to care
	out := s.Run()
	if fired {
		t.Error("stale event fired after the last coroutine finished")
	}
	if out.Now != 5 {
		t.Errorf("Now = %d, want 5 (the last step's instant)", out.Now)
	}
	if out.Aborted() {
		t.Errorf("outcome = %+v, want clean", out)
	}
}

// TestPopOrderPinnedAcrossTiers is the tie-break contract of the timer
// wheel: whatever tier an event lands in — active bucket, wheel slot, or
// far-future overflow — the pop order is exactly the global (at, seq)
// order the single min-heap produced. Each case lists events as (label,
// at) in schedule order (which fixes seq) and pins the exact fire order.
func TestPopOrderPinnedAcrossTiers(t *testing.T) {
	type ev struct {
		label string
		at    Time
	}
	const (
		slotW  = Time(1) << 14 // one wheel bucket of virtual time
		window = slotW * 256   // the wheel horizon
	)
	cases := []struct {
		name string
		evs  []ev
		want []string
	}{
		{
			name: "same-instant ties fire in schedule order",
			evs:  []ev{{"a", 5}, {"b", 5}, {"c", 5}, {"d", 3}},
			want: []string{"d", "a", "b", "c"},
		},
		{
			name: "events in one bucket sort by instant then seq",
			evs:  []ev{{"late", slotW - 1}, {"early", 1}, {"mid", 7}, {"mid2", 7}},
			want: []string{"early", "mid", "mid2", "late"},
		},
		{
			name: "buckets across the wheel fire in slot order",
			evs:  []ev{{"s9", 9 * slotW}, {"s2", 2 * slotW}, {"s255", 255 * slotW}, {"s2b", 2*slotW + 3}},
			want: []string{"s2", "s2b", "s9", "s255"},
		},
		{
			name: "overflow events interleave with wheel events by instant",
			evs: []ev{
				{"far", window + 5},    // overflow at schedule time
				{"near", 10},           // wheel
				{"far2", 2*window + 1}, // deep overflow
				{"edge", window - 1},   // last wheel slot
			},
			want: []string{"near", "edge", "far", "far2"},
		},
		{
			name: "same instant across tiers keeps schedule order",
			// Both land at window+7, but the first is scheduled while that
			// instant is beyond the horizon (overflow) and the second after
			// the... also overflow; a third is scheduled from an event at
			// cascade time. Ties must still fire in seq order.
			evs:  []ev{{"o1", window + 7}, {"o2", window + 7}, {"w", 3}},
			want: []string{"w", "o1", "o2"},
		},
		{
			name: "past instants clamp to now, preserving schedule order",
			evs:  []ev{{"t5", 5}, {"t0", 0}, {"t5b", 5}},
			want: []string{"t0", "t5", "t5b"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			var got []string
			for _, e := range tc.evs {
				e := e
				s.At(e.at, func() { got = append(got, e.label) })
			}
			out := s.Run()
			if out.Aborted() {
				t.Fatalf("outcome = %+v, want clean", out)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("fired %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("fired %v, want %v", got, tc.want)
				}
			}
			if st := out.Stats; st.EventsScheduled != int64(len(tc.evs)) {
				t.Fatalf("EventsScheduled = %d, want %d", st.EventsScheduled, len(tc.evs))
			}
		})
	}
}

// TestWheelMatchesHeapReference drives the tiered wheel with a seeded
// random workload — including events scheduled from inside events, the
// case where the wheel is live — and checks the fire order against a
// sorted (at, seq) reference. This is the heap→wheel bit-identity
// argument run in anger: the wheel IS a (at, seq) priority queue.
func TestWheelMatchesHeapReference(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
			s := New()
			type rec struct {
				at  Time
				seq int // global schedule order
			}
			var fired []rec
			var want []rec
			scheduled := 0
			// Time scale mixes sub-slot, in-window, and overflow horizons.
			randAt := func(base Time) Time {
				switch rng.IntN(4) {
				case 0:
					return base + Time(rng.Int64N(1<<14)) // same bucket
				case 1:
					return base + Time(rng.Int64N(1<<22)) // inside the wheel
				case 2:
					return base + Time(rng.Int64N(1<<30)) // far overflow
				default:
					return base // immediate
				}
			}
			var schedule func(at Time, fanout int)
			schedule = func(at Time, fanout int) {
				seq := scheduled
				scheduled++
				want = append(want, rec{at: at, seq: seq})
				s.At(at, func() {
					fired = append(fired, rec{at: at, seq: seq})
					for k := 0; k < fanout; k++ {
						if scheduled < 3000 {
							schedule(randAt(s.Now()), rng.IntN(3))
						}
					}
				})
			}
			for i := 0; i < 200; i++ {
				schedule(randAt(0), rng.IntN(3))
			}
			out := s.Run()
			if out.Aborted() {
				t.Fatalf("outcome = %+v", out)
			}
			if int(out.Steps) != len(want) {
				t.Fatalf("fired %d of %d scheduled events", out.Steps, len(want))
			}
			// Reference order: the events sorted by (at, seq). Events
			// scheduled from inside events have at ≥ firing instant, so the
			// global sort is exactly the legal fire order.
			sort.SliceStable(want, func(i, j int) bool {
				if want[i].at != want[j].at {
					return want[i].at < want[j].at
				}
				return want[i].seq < want[j].seq
			})
			for i := range fired {
				if fired[i] != want[i] {
					t.Fatalf("position %d: fired (at=%d seq=%d), reference (at=%d seq=%d)",
						i, fired[i].at, fired[i].seq, want[i].at, want[i].seq)
				}
			}
			if out.Stats.MaxBucketDepth == 0 || out.Stats.EventsScheduled != int64(scheduled) {
				t.Fatalf("stats = %+v, scheduled %d", out.Stats, scheduled)
			}
		})
	}
}

// TestSchedulerStatsCascades: events past the wheel horizon cascade in
// exactly once, and the counters replay deterministically.
func TestSchedulerStatsCascades(t *testing.T) {
	build := func() Outcome {
		s := New()
		const horizon = Time(256) << 14
		for i := 0; i < 10; i++ {
			s.At(horizon*Time(i+1)+Time(i), func() {})
		}
		for i := 0; i < 5; i++ {
			s.At(Time(i), func() {})
		}
		return s.Run()
	}
	out := build()
	if out.Stats.EventsScheduled != 15 {
		t.Fatalf("EventsScheduled = %d, want 15", out.Stats.EventsScheduled)
	}
	if out.Stats.WheelCascades != 10 {
		t.Fatalf("WheelCascades = %d, want 10 (one per far-future event)", out.Stats.WheelCascades)
	}
	if out.Steps != 15 {
		t.Fatalf("Steps = %d, want 15", out.Steps)
	}
	if again := build(); again != out {
		t.Fatalf("stats not deterministic:\n  first:  %+v\n  second: %+v", out, again)
	}
}

// cyclingEvent reschedules itself, hopping half a wheel slot each firing,
// and measures heap allocations over the middle of the run — the
// steady-state cost of the AtEvent/wheel path.
type cyclingEvent struct {
	s        *Scheduler
	left     int
	baseline uint64
	measured *uint64
}

func (c *cyclingEvent) Fire() {
	c.left--
	if c.left == 6000 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		c.baseline = m.Mallocs
	}
	if c.left == 1000 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		*c.measured = m.Mallocs - c.baseline
	}
	if c.left > 0 {
		c.s.AfterEvent(Time(1)<<13, c)
	}
}

// TestAtEventZeroAlloc: the pooled-event scheduling path must not allocate
// in steady state — events ride the wheel's reused buckets, with no
// closure and no heap boxing. This is the contract the netsim fanout pool
// is built on. (s.At wraps the func in an allocation-free adapter,
// so the closure itself is the only alloc of the closure path.)
func TestAtEventZeroAlloc(t *testing.T) {
	s := New()
	var measured uint64
	ev := &cyclingEvent{s: s, left: 8000, measured: &measured}
	s.AtEvent(0, ev)
	if out := s.Run(); out.Aborted() {
		t.Fatalf("outcome = %+v", out)
	}
	// 5000 reschedule+fire cycles measured; allow a handful of stray
	// runtime allocations (GC bookkeeping).
	if measured > 16 {
		t.Fatalf("steady-state wheel cycle allocated %d times over 5000 events, want ~0", measured)
	}
}

// TestRecycleLeavesNoState: a scheduler a cut-short run hands back must carry
// nothing of that run — no event in any heap, bucket or the open slot's run,
// every bucket empty and no event (hence no Event pointer) left in any chunk
// on the free list; no Proc holding a handler, no runnable entry, no job —
// while keeping the capacity the run grew.
func TestRecycleLeavesNoState(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewPCG(5, 8))
	const events, procs = 4000, 9
	for i := 0; i < events; i++ {
		// Up to 8ms ahead: about half start in the overflow heap and cascade
		// into the buckets as the window moves.
		s.AtEvent(Time(rng.Int64N(8_000_000)), &cyclingEvent{})
	}
	for i := 0; i < procs; i++ {
		s.SpawnHandler("h", func(bool) {})
	}
	// A run cut short: pop a third of the events, leaving the rest pending
	// in the open slot's run and late heap, the buckets and the overflow heap.
	last := Time(0)
	for i := 0; i < events/3; i++ {
		if _, ok := s.next(); !ok {
			t.Fatal("wheel ran dry")
		}
		ev := s.wheel.popHead()
		if ev.at < last {
			t.Fatalf("pop %d went back in time: %d after %d", i, ev.at, last)
		}
		last = ev.at
		s.now = ev.at
	}
	s.AtEvent(s.now, &cyclingEvent{}) // into the open slot's late heap
	if s.wheel.wheelCount == 0 || len(s.wheel.late) == 0 || len(s.wheel.overflow) == 0 || len(s.wheel.order) == 0 {
		t.Fatalf("a tier holds no pending event; the test would check nothing there: buckets %d late %d overflow %d run %d",
			s.wheel.wheelCount, len(s.wheel.late), len(s.wheel.overflow), len(s.wheel.order))
	}
	held, procsHeld := s.wheel.slots, s.procs
	s.reset()

	w := &s.wheel
	if w.slots != held {
		t.Fatalf("reset dropped the bucket array %p for %p", held, w.slots)
	}
	if w.curSlot != 0 || s.now != 0 || s.seq != 0 {
		t.Fatalf("reset left curSlot=%d now=%d seq=%d", w.curSlot, s.now, s.seq)
	}
	if checkNoEvent(t, w) == 0 {
		t.Fatal("the scheduler kept none of the bucket chunks the run grew")
	}
	if len(s.procs) != 0 || cap(s.procs) != cap(procsHeld) || s.live != 0 || s.spawned != 0 {
		t.Fatalf("reset left procs=%d/%d live=%d spawned=%d", len(s.procs), cap(s.procs), s.live, s.spawned)
	}
	for i, p := range procsHeld[:cap(procsHeld)] {
		if p != nil {
			t.Fatalf("the process list keeps a proc at %d of its capacity", i)
		}
	}
	for i, p := range s.runnable[:cap(s.runnable)] {
		if p != nil {
			t.Fatalf("run queue keeps a proc at %d of its capacity", i)
		}
	}
	if s.Stats() != (SchedulerStats{}) || s.outcome != (Outcome{}) || s.earliest != maxTime {
		t.Fatalf("reset left stats %+v, outcome %+v, earliest %d", s.Stats(), s.outcome, s.earliest)
	}

	// The scheduler runs again as a new one would, in the process list it
	// kept.
	var order []int
	for i := 0; i < procs; i++ {
		var p *Proc
		p = s.SpawnHandler("again", func(bool) { order = append(order, i); p.Finish() })
		if &s.procs[i] != &procsHeld[:i+1][i] {
			t.Fatalf("Inline %d grew a new process list instead of reusing the kept one", i)
		}
	}
	if out := s.Run(); out.Now != 0 || out.Steps != 0 || out.Aborted() || len(order) != procs {
		t.Fatalf("rerun: %+v, %d procs stepped", out, len(order))
	}
}

// TestRecycleClearsJobs: a scheduler cleared with jobs still registered keeps
// none of them, in the slice's capacity either.
func TestRecycleClearsJobs(t *testing.T) {
	s := New(WithShards(4))
	tr := &trace{s: s}
	(&recJob{tr: tr, name: "j", base: 100 * us, perShard: 3}).submit()
	(&recJob{tr: tr, name: "k", base: 200 * us, perShard: 3}).submit()
	jobs := s.jobs
	s.reset()
	if len(s.jobs) != 0 || s.earliest != maxTime {
		t.Fatalf("reset left %d jobs, earliest %d", len(s.jobs), s.earliest)
	}
	for i, j := range jobs[:cap(jobs)] {
		if j != (shardTask{}) {
			t.Fatalf("job slot %d keeps %+v", i, j)
		}
	}
}

// TestRecycleKeepsAndPools: Kept hands on, once, what the previous run
// stored with Keep and nothing of the current run's; Recycle puts
// coroutine-free schedulers in the pool, sharded or not, and leaves the
// others out. A recycled sharded scheduler is unsharded, at virtual time
// zero, and holds no event in any tier or on its free list.
func TestRecycleKeepsAndPools(t *testing.T) {
	s := new(Scheduler)
	s.ins.s, s.earliest = s, maxTime
	if s.Kept(KeepNetwork) != nil || s.Kept(KeepProcs) != nil || s.Kept(KeepProtocol) != nil {
		t.Fatal("a new scheduler has something kept")
	}
	s.Keep(KeepNetwork, "first")
	s.Keep(KeepProcs, "records")
	s.Keep(KeepProtocol, "state")
	if s.Kept(KeepNetwork) != nil {
		t.Fatal("Kept returned this run's value before Recycle")
	}
	s.reset()
	if v := s.Kept(KeepNetwork); v != "first" {
		t.Fatalf("after reset Kept = %v, want first", v)
	}
	if s.Kept(KeepNetwork) != nil {
		t.Fatal("Kept returned the value twice")
	}
	s.Keep(KeepNetwork, "second")
	s.reset()
	s.reset() // a run that keeps nothing hands the earlier value on
	if v := s.Kept(KeepNetwork); v != "second" {
		t.Fatalf("after two resets Kept = %v, want second", v)
	}
	if v := s.Kept(KeepProcs); v != "records" {
		t.Fatalf("the process slot holds %v after three resets, want records: the slots are independent", v)
	}
	if v := s.Kept(KeepProtocol); v != "state" {
		t.Fatalf("the protocol slot holds %v after three resets, want state: the slots are independent", v)
	}

	co := New()
	co.Spawn("c", func() {})
	co.Run()
	co.Recycle()
	if co.yield == nil || co.spawned != 1 {
		t.Fatal("Recycle cleared a scheduler that ran Spawn")
	}
	sh := New(WithShards(2))
	sh.After(5, func() {})
	sh.After(20*us, func() {}) // a bucket: its chunk goes on the free list
	sh.After(Time(wheelSlots)<<slotWidthShift, func() {})
	sh.Run()
	sh.reset()
	if sh.now != 0 || sh.shards != 0 {
		t.Fatalf("reset left a sharded scheduler at now=%d with %d shards", sh.now, sh.shards)
	}
	if checkNoEvent(t, &sh.wheel) == 0 {
		t.Fatal("the sharded scheduler kept no chunk; its free list was checked for nothing")
	}
	sh.Recycle()
	// The pool may drop any Put (it does so at random under -race), so only
	// a scheduler New does hand back is checked: it must be clean.
	for i := 0; i < 20; i++ {
		s := New()
		var p *Proc
		p = s.SpawnHandler("h", func(aborted bool) {
			if aborted {
				p.Finish()
			}
		})
		s.After(Time(i+1), func() {})
		if out := s.Run(); out.Now != Time(i+1) || out.Steps != 1 || !out.Quiesced {
			t.Fatalf("run %d on a recycled scheduler: %+v", i, out)
		}
		s.Recycle()
		if got := New(); got == co {
			t.Fatal("New returned a scheduler Recycle refused")
		} else if got.pending() != 0 || got.now != 0 || len(got.procs) != 0 {
			t.Fatalf("New returned a scheduler with state: pending %d now %d procs %d", got.pending(), got.now, len(got.procs))
		} else {
			got.Recycle()
		}
	}
}

// checkNoEvent fails unless the wheel w, just reset, holds no event: none
// pending, no run, none in the capacity of the run buffer or of either heap,
// every bucket empty and the free list clean (checkFreeList). It returns the
// number of chunks on the free list.
func checkNoEvent(t testing.TB, w *wheel) int {
	t.Helper()
	if w.wheelCount != 0 || len(w.order)+len(w.late)+len(w.overflow)+len(w.run) != 0 {
		t.Fatalf("reset left %d in buckets, %d in order, %d late, %d in overflow, run %d",
			w.wheelCount, len(w.order), len(w.late), len(w.overflow), len(w.run))
	}
	for name, tier := range map[string][]event{"run": w.run, "late heap": w.late, "overflow heap": w.overflow} {
		for i, ev := range tier[:cap(tier)] {
			if ev != (event{}) {
				t.Fatalf("the %s keeps %+v at %d of its capacity", name, ev, i)
			}
		}
	}
	if w.slots == nil {
		return 0
	}
	for i, b := range w.slots.buckets {
		if b != (bucket{}) {
			t.Fatalf("bucket %d kept %d events", i, b.n)
		}
	}
	return len(checkFreeList(t, w.slots, nil))
}

// checkFreeList fails unless every chunk on st's free list holds no event
// anywhere — the clear-on-return invariant, which must hold at every instant
// of a run, not only when the scheduler is pooled — and returns the list,
// bottom first. prev is the list as an earlier call returned it (nil: none):
// a chunk leaves the list only off its top, so the chunks at its bottom that
// are still where prev had them were scanned then and are not scanned again
// (one that left and came back to the same depth in between escapes the
// rescan; a last call with nil scans them all). Without that, a fuzzed op
// stream that grows one bucket to 10⁵ events would rescan its 1,600 chunks
// after every later op, and stall the fuzzer.
func checkFreeList(t testing.TB, st *slotArray, prev []*chunk) []*chunk {
	t.Helper()
	var list []*chunk
	for c := st.free; c != nil; c = c.next {
		list = append(list, c)
	}
	slices.Reverse(list)
	same := 0
	for same < min(len(list), len(prev)) && list[same] == prev[same] {
		same++
	}
	for k, c := range list[same:] {
		if c.ev != ([chunkLen]event{}) {
			i := slices.IndexFunc(c.ev[:], func(ev event) bool { return ev != (event{}) })
			t.Fatalf("free chunk %d from the bottom, entry %d, still holds %+v", same+k, i, c.ev[i])
		}
	}
	return list
}

// chunks returns the number of chunks bucket b holds.
func (b *bucket) chunks() int {
	k := 0
	for c := b.head; c != nil; c = c.next {
		k++
	}
	return k
}

// TestWheelStorageFollowsPendingEvents: the capacity the wheel keeps in its
// buckets' chunks, its free list and the open slot's run follows the events
// pending at once, not the 256 buckets of the ring. A band of 16 slots × 64
// events moves four times round the ring; were each bucket to keep the
// storage it grew, the wheel would hold 256 × 64 slots for a peak of 16 × 64
// pending events.
func TestWheelStorageFollowsPendingEvents(t *testing.T) {
	const band, k, laps = 16, 64, 4
	s := New()
	defer s.Release()
	peak := 0
	for sl := int64(1); sl <= laps*wheelSlots; sl++ {
		base := Time(sl+band-1) << slotWidthShift
		for i := Time(0); i < k; i++ {
			s.AtEvent(base+i*i*131%(1<<slotWidthShift), nopEvent)
		}
		peak = max(peak, s.pending())
		for {
			at, ok := s.next()
			if !ok || slotOf(at) > sl {
				break
			}
			s.now = s.wheel.popHead().at
		}
	}
	w := &s.wheel
	chunks := len(checkFreeList(t, w.slots, nil))
	for i := range w.slots.buckets {
		chunks += w.slots.buckets[i].chunks()
	}
	retained := cap(w.run) + chunks*chunkLen
	if retained > 2*peak {
		t.Fatalf("the wheel keeps %d event slots for at most %d pending events", retained, peak)
	}
	t.Logf("%d event slots kept for a peak of %d pending events", retained, peak)
}

// TestFreeChunksFollowPeak drives one scheduler through a schedule whose
// peak pending count it knows — waves of events spread over the wheel's
// window, each popped down before the next, deeper ones first, then drained
// — and holds its free list, once every bucket has emptied into it, to no
// event in any chunk and at most ⌈peak/chunkLen⌉ + 256 chunks: a chunk per
// chunkLen pending events, plus one part-filled chunk per bucket at most.
func TestFreeChunksFollowPeak(t *testing.T) {
	s := New()
	defer s.Release()
	rng := rand.New(rand.NewPCG(3, 52))
	const window = Time(wheelSlots-1) << slotWidthShift
	peak := 0
	for _, wave := range []int{20_000, 9_000, 300, 15_000, 40} {
		for range wave {
			s.AtEvent(s.now+Time(rng.Int64N(int64(window))), nopEvent)
		}
		peak = max(peak, s.pending())
		for range wave * 3 / 4 {
			at, ok := s.next()
			if !ok {
				t.Fatal("wheel ran dry")
			}
			s.wheel.pop()
			s.now = at
		}
	}
	for {
		at, ok := s.next()
		if !ok {
			break
		}
		s.wheel.pop()
		s.now = at
	}
	if s.pending() != 0 {
		t.Fatalf("%d events pending after the drain", s.pending())
	}
	free := len(checkFreeList(t, s.wheel.slots, nil))
	if bound := (peak+chunkLen-1)/chunkLen + wheelSlots; free > bound {
		t.Fatalf("the free list holds %d chunks for a peak of %d pending events, want at most %d", free, peak, bound)
	}
	if free < peak/chunkLen {
		t.Fatalf("the free list holds %d chunks for a peak of %d pending events: the buckets kept or dropped some", free, peak)
	}
	t.Logf("%d free chunks (%d event slots) for a peak of %d pending events", free, free*chunkLen, peak)
}

// pending returns the number of undelivered events in the wheel.
func (s *Scheduler) pending() int {
	w := &s.wheel
	return len(w.order) + len(w.late) + w.wheelCount + len(w.overflow)
}

// refWheel is the reference model of the wheel: the open slot is a binary
// min-heap that every pop sifts — the form the wheel had before a slot was
// ordered once at activation. It is kept for TestWheelOpsMatchReference and
// FuzzWheelOps, which hold the real scheduler to its pop order and counters.
type refWheel struct {
	active, overflow []event
	slots            [wheelSlots][]event
	curSlot          int64
	wheelCount       int

	cascades, maxDepth int64
	late               int // inserts into the open slot (coverage only)
}

func (w *refWheel) pending() int { return len(w.active) + w.wheelCount + len(w.overflow) }

func (w *refWheel) insert(ev event) {
	slot := slotOf(ev.at)
	switch {
	case slot <= w.curSlot:
		refPush(&w.active, ev)
		w.late++
		w.maxDepth = max(w.maxDepth, int64(len(w.active)))
	case slot < w.curSlot+wheelSlots:
		b := &w.slots[slot&wheelMask]
		*b = append(*b, ev)
		w.wheelCount++
		w.maxDepth = max(w.maxDepth, int64(len(*b)))
	default:
		refPush(&w.overflow, ev)
	}
}

// refPush and refPop are the reference's heap operations, on the wheel's
// own heap.
func refPush(h *[]event, ev event) { pushEvent(h, ev.at, ev.seq, ev.route, ev.ev) }

func refPop(h *[]event) event {
	top := (*h)[0]
	dropMin(h)
	return top
}

// popHead pops the wheel's head and returns it whole.
func (w *wheel) popHead() event {
	head, _ := w.first()
	ev := *head
	w.pop()
	return ev
}

// advance opens no slot past stop, like wheel.advance.
func (w *refWheel) advance(stop int64) bool {
	for {
		for len(w.overflow) > 0 && slotOf(w.overflow[0].at) < w.curSlot+wheelSlots {
			w.cascades++
			w.insert(refPop(&w.overflow))
		}
		if len(w.active) > 0 {
			return true
		}
		if w.wheelCount > 0 {
			sl := w.curSlot + 1
			for len(w.slots[sl&wheelMask]) == 0 {
				sl++
			}
			if sl > stop {
				return false
			}
			b := &w.slots[sl&wheelMask]
			w.curSlot = sl
			w.wheelCount -= len(*b)
			for _, ev := range *b {
				refPush(&w.active, ev)
			}
			*b = (*b)[:0]
			continue
		}
		if len(w.overflow) == 0 || slotOf(w.overflow[0].at) > stop {
			return false
		}
		w.curSlot = slotOf(w.overflow[0].at)
	}
}

// refSched is the reference scheduler: one refWheel, plus the staged blocks
// registered since the last flush and the lookahead rule that flushes them.
type refSched struct {
	w         refWheel
	seq       uint64
	now       Time
	scheduled int64

	shards   int
	jobs     []*opJob
	earliest Time // maxTime while no block is registered
}

func (r *refSched) at(t Time) {
	r.seq++
	r.scheduled++
	r.w.insert(event{at: max(t, r.now), seq: r.seq})
}

func (r *refSched) submit(j *opJob, earliest Time) {
	r.jobs = append(r.jobs, j)
	r.earliest = min(r.earliest, max(earliest, r.now))
}

// flush reserves every registered block's sequence numbers in registration
// order, then inserts the blocks shard by shard, as Scheduler.flush does.
func (r *refSched) flush() {
	bases := make([]uint64, len(r.jobs))
	for i, j := range r.jobs {
		bases[i] = r.seq + 1
		r.seq += uint64(len(j.evs)) + j.pad
	}
	for sh := 0; sh < r.shards; sh++ {
		for i, j := range r.jobs {
			for k := len(j.evs) - 1; k >= 0; k-- {
				if e := j.evs[k]; e.shard == sh {
					r.scheduled++
					r.w.insert(event{at: max(e.at, r.now), seq: bases[i] + uint64(k)})
				}
			}
		}
	}
	r.jobs, r.earliest = r.jobs[:0], maxTime
}

// pop flushes the registered blocks first whenever the head lies past their
// earliest instant or nothing is pending — the lookahead rule.
func (r *refSched) pop() (event, bool) {
	for {
		ok := r.w.advance(slotOf(r.earliest))
		if len(r.jobs) > 0 && (!ok || r.w.active[0].at > r.earliest) {
			r.flush()
			continue
		}
		if !ok {
			return event{}, false
		}
		ev := refPop(&r.w.active)
		r.now = max(r.now, ev.at)
		return ev, true
	}
}

// opEvent is one event of a staged block.
type opEvent struct {
	shard int
	at    Time
}

// opJob is a flush window inserting evs: event j takes sequence number base+j
// and goes to shard evs[j].shard, and each shard inserts its events in
// descending j — the order a lone delivery inserted ahead of its fanout leaves
// behind: a bucket that was not appended in seq order.
type opJob struct {
	evs []opEvent
	pad uint64 // sequence numbers reserved beyond len(evs)
}

func (j *opJob) Seal() (uint64, int64) { return uint64(len(j.evs)) + j.pad, 1 }

func (j *opJob) ExpandShard(shard int, base uint64, ins *ShardInserter) {
	for i := len(j.evs) - 1; i >= 0; i-- {
		if j.evs[i].shard == shard {
			ins.At(j.evs[i].at, base+uint64(i), nopEvent)
		}
	}
}

var nopEvent = eventFunc(func() {})

// wheelOpsCoverage is what a driven op stream exercised.
type wheelOpsCoverage struct {
	pops, ties, late, staged, lookahead int
	cascades, maxDepth                  int64
}

// driveWheelOps decodes data into scheduler operations and applies each one
// to a real Scheduler and to the reference model, failing unless both pop the
// same (at, seq) every time and agree on pending, EventsScheduled,
// WheelCascades and MaxBucketDepth after every operation — after which the
// scheduler's free list must also hold no event (checkFreeList).
//
// data[0] picks the shape: its low two bits mod 3 the shard count of staged
// blocks (0 — the staging ops then schedule plain events — 8 or 16), bit 2
// whether the run is drained at the end or cut short with events pending.
// Every following operation is an opcode byte b and its argument bytes; the
// instants it schedules are now+δ with δ of one of five classes — 0, inside
// now's slot, in the next slot, inside the wheel's window, past its 4.2 ms
// horizon:
//
//	b&7 = 0,1  one event, class and spread from one argument
//	b&7 = 2    a staged block of 1–12 events registered with its earliest
//	           instant δ ahead and left to the pop path, which flushes it
//	           under the lookahead rule
//	b&7 = 3    a burst of 1–256 events into one future slot
//	b&7 = 4    1–16 events at ONE instant
//	b&7 = 5    a staged block of 1–12 events, flushed at once (with every
//	           block still registered)
//	b&7 = 6,7  4·(1 + b>>3) pops
func driveWheelOps(t testing.TB, data []byte) (cov wheelOpsCoverage) {
	if len(data) == 0 {
		return
	}
	const slotW, window = Time(1) << slotWidthShift, Time(wheelSlots) << slotWidthShift
	shards := int(data[0]&3%3) * 8
	drain := data[0]&4 != 0
	data = data[1:]
	arg := func() Time {
		if len(data) == 0 {
			return 0
		}
		a := data[0]
		data = data[1:]
		return Time(a)
	}

	s := New(WithShards(shards))
	defer s.Release()
	ref := &refSched{shards: shards, earliest: maxTime}
	at := func(t Time) {
		s.AtEvent(t, nopEvent)
		ref.at(t)
	}
	delta := func(class, spread Time) Time {
		left := slotW - s.now&(slotW-1) // to the end of now's slot
		switch class % 5 {
		case 0:
			return 0
		case 1:
			return spread * 37 % left
		case 2:
			return left + spread*509%slotW
		case 3:
			return (1 + spread%32) * (window / 32)
		default:
			return window + spread*1_000_003
		}
	}
	// stage registers a block of events at or after earliest; without shards
	// it schedules one plain event there instead.
	stage := func(a, earliest Time) {
		if shards == 0 {
			at(earliest)
			return
		}
		job := &opJob{pad: uint64(a >> 6)}
		for j := Time(0); j <= a%12; j++ {
			job.evs = append(job.evs, opEvent{int(a+j*5) % shards, earliest + (a>>2+j*3)%7*4099})
		}
		s.SubmitSealed(job, earliest)
		ref.submit(job, earliest)
		cov.staged += len(job.evs)
	}
	pop := func() bool {
		want, ok := ref.pop()
		flushes := s.stats.PoolFlushes
		_, got := s.next()
		if got != ok {
			t.Fatalf("pop %d: scheduler has an event = %v, reference = %v", cov.pops, got, ok)
		}
		if s.stats.PoolFlushes != flushes {
			cov.lookahead++
		}
		if !ok {
			return false
		}
		ev := s.wheel.popHead()
		if ev.at != want.at || ev.seq != want.seq {
			t.Fatalf("pop %d: (at=%d seq=%d), reference (at=%d seq=%d)", cov.pops, ev.at, ev.seq, want.at, want.seq)
		}
		if ev.at == s.now && cov.pops > 0 {
			cov.ties++
		}
		s.now = max(s.now, ev.at)
		cov.pops++
		return true
	}
	var freed []*chunk
	check := func(op byte) {
		st := s.Stats()
		if s.pending() != ref.w.pending() || st.EventsScheduled != ref.scheduled ||
			st.WheelCascades != ref.w.cascades || st.MaxBucketDepth != ref.w.maxDepth {
			t.Fatalf("after op %#x at now=%d: pending %d scheduled %d cascades %d maxDepth %d, reference %d %d %d %d",
				op, s.now, s.pending(), st.EventsScheduled, st.WheelCascades, st.MaxBucketDepth,
				ref.w.pending(), ref.scheduled, ref.w.cascades, ref.w.maxDepth)
		}
		if s.wheel.slots != nil {
			freed = checkFreeList(t, s.wheel.slots, freed)
		}
	}

	for len(data) > 0 {
		b := data[0]
		data = data[1:]
		switch b & 7 {
		case 0, 1:
			a := arg()
			at(s.now + delta(a&7, a>>3))
		case 2:
			a, e := arg(), arg()
			stage(a, s.now+delta(e&7, e>>3))
		case 3:
			n, a := 1+arg(), arg()
			slot := (s.now + delta(1+a%3, a>>2)) &^ (slotW - 1)
			for i := Time(0); i < n; i++ {
				at(slot + (i*7919+a*31)%slotW) // clamped to now where it falls short
			}
		case 4:
			a := arg()
			t := s.now + a>>4*1000
			for i := 0; i <= int(a&15); i++ {
				at(t)
			}
		case 5:
			stage(arg(), s.now)
			if shards > 0 {
				s.flush()
				ref.flush()
			}
		default:
			for i := 0; i < 4*(1+int(b>>3)) && pop(); i++ {
			}
		}
		check(b)
	}
	for drain && pop() {
	}
	freed = nil // the last check scans the whole free list
	check(0xff)
	cov.cascades, cov.maxDepth, cov.late = ref.w.cascades, ref.w.maxDepth, ref.w.late
	return cov
}

// wheelOpStreams is the table TestWheelOpsMatchReference runs and FuzzWheelOps
// starts from: seeded random op streams for every shard count of staged
// blocks, drained and cut short.
func wheelOpStreams() [][]byte {
	var streams [][]byte
	for shape := byte(0); shape < 3; shape++ {
		for seed := uint64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(shape)))
			data := make([]byte, 1+600)
			for i := range data {
				data[i] = byte(rng.Uint32())
			}
			data[0] = shape | byte(seed&1)<<2
			streams = append(streams, data)
		}
	}
	return streams
}

// TestWheelOpsMatchReference extends TestWheelMatchesHeapReference from whole
// runs to single operations: the scheduler alone, unsharded and with staged
// blocks over 8 and 16 shards, against the heap-bucket reference model after
// every insert, staged block and pop (driveWheelOps). The table must reach the
// shapes the wheel's forms differ on, and flushes the pop path decides; that
// is asserted too.
func TestWheelOpsMatchReference(t *testing.T) {
	var total wheelOpsCoverage
	for i, data := range wheelOpStreams() {
		cov := driveWheelOps(t, data)
		if cov.pops == 0 {
			t.Fatalf("stream %d popped nothing", i)
		}
		total.pops += cov.pops
		total.ties += cov.ties
		total.late += cov.late
		total.staged += cov.staged
		total.lookahead += cov.lookahead
		total.cascades += cov.cascades
		total.maxDepth = max(total.maxDepth, cov.maxDepth)
	}
	if total.ties == 0 || total.late == 0 || total.staged == 0 || total.lookahead == 0 || total.cascades == 0 || total.maxDepth < 256 {
		t.Fatalf("the table misses a shape: %+v", total)
	}
	t.Logf("coverage: %+v", total)
}

// FuzzWheelOps is TestWheelOpsMatchReference with the op stream chosen by the
// fuzzer: any wheel mutation that the pop path does not see — a slot opened
// early, a flush at the wrong point, a miscounted depth — shows up as a pop or
// a counter the reference disagrees with.
func FuzzWheelOps(f *testing.F) {
	for _, data := range wheelOpStreams() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		driveWheelOps(t, data[:min(len(data), 4096)])
	})
}
