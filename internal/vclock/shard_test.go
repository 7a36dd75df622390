package vclock

// Sharded-scheduler unit tests: window expansion and the pop path in
// isolation from netsim — synthetic Jobs inserting events with known
// (at, seq) keys, checked for global pop order, the one lookahead/tie-break
// rule, the flush counters, and replay.

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

const us = Time(time.Microsecond)

// trace is a pop log: every fired event appends one line, under the token
// (Fire), so no synchronization is needed. Lines carry the flush count
// seen at fire time, which pins WHEN the window closed, not just the order.
type trace struct {
	s     *Scheduler
	lines []string
}

func (tr *trace) note(what string) {
	tr.lines = append(tr.lines, fmt.Sprintf("%s@%d/f%d", what, tr.s.Now(), tr.s.Stats().PoolFlushes))
}

// mark schedules an event that logs name.
func (tr *trace) mark(at Time, name string) {
	tr.s.At(at, func() { tr.note(name) })
}

// recJob is a synthetic expansion job: shard s inserts perShard events at
// instants at+base+s·step+k·stride, from a block of shards·perShard
// sequence numbers laid out shard-major, and notes one payload byte per
// event.
type recJob struct {
	tr       *trace
	name     string
	at       Time // registration instant
	base     Time // earliest arrival offset from at
	step     Time
	stride   Time
	perShard int
}

func (j *recJob) Seal() (uint64, int64) {
	return uint64(j.tr.s.ShardCount() * j.perShard), 1
}

func (j *recJob) ExpandShard(shard int, seqBase uint64, ins *ShardInserter) {
	for k := 0; k < j.perShard; k++ {
		at := j.at + j.base + Time(shard)*j.step + Time(k)*j.stride
		what := fmt.Sprintf("%s.%d.%d", j.name, shard, k)
		ins.At(at, seqBase+uint64(shard*j.perShard+k), eventFunc(func() { j.tr.note(what) }))
	}
	ins.NotePayloadBytes(int64(j.perShard))
}

// submit registers j now, declaring its true earliest arrival.
func (j *recJob) submit() {
	j.at = j.tr.s.Now()
	j.tr.s.SubmitSealed(j, j.at+j.base)
}

// replayed runs build twice, each time on a fresh 4-shard scheduler, and
// fails unless the pop trace and the Outcome — every stats counter included —
// are identical. It returns the first run.
func replayed(t *testing.T, build func(tr *trace), opts ...Option) ([]string, Outcome) {
	t.Helper()
	run := func() ([]string, Outcome) {
		s := New(append([]Option{WithShards(4)}, opts...)...)
		defer s.Release()
		tr := &trace{s: s}
		build(tr)
		// Pure-event schedulers (no processes) drain the wheel completely,
		// so nothing is cut short by the last coroutine finishing.
		return tr.lines, s.Run()
	}
	refLog, refOut := run()
	log, out := run()
	if !reflect.DeepEqual(refLog, log) {
		t.Fatalf("pop trace diverged on replay\n  ref: %v\n  got: %v", refLog, log)
	}
	if !reflect.DeepEqual(refOut, out) {
		t.Fatalf("outcome diverged on replay\n  ref: %+v\n  got: %+v", refOut, out)
	}
	return refLog, refOut
}

// TestShardPopOrderAndWorkerIndependence checks the sharded pop order and the
// flush counters on a schedule that registers jobs at t=0 and t=40µs with
// interleaved plain events, exercising both the drain-before-flush path
// (events at or below the lookahead bound) and the flush-on-demand path
// (an event past it). Its name is kept from when it also compared
// expansion-pool widths; the run is now checked against its replay.
func TestShardPopOrderAndWorkerIndependence(t *testing.T) {
	log, out := replayed(t, func(tr *trace) {
		j1 := &recJob{tr: tr, name: "j1", base: 10 * us, step: 7, stride: 3, perShard: 5}
		j2 := &recJob{tr: tr, name: "j2", base: 5 * us, step: 11, stride: 2, perShard: 4}
		j1.submit()
		tr.mark(2*us, "below")  // poppable while the job is registered
		tr.mark(20*us, "above") // forces the flush first
		tr.s.At(40*us, j2.submit)
	})
	if len(log) != 38 { // j1: 4×5, j2: 4×4, plus the 2 marks
		t.Fatalf("trace length %d, want 38", len(log))
	}
	st := out.Stats
	if st.BurstJobs != 2 || st.ExpandJobs != 2 || st.ShardEvents != 36 || st.PoolFlushes != 2 ||
		st.MaxShardStage != 5 || st.PooledPayloadBytes != 36 {
		t.Fatalf("unexpected expansion stats: %+v", st)
	}
	if want := "below@2000/f0"; log[0] != want {
		t.Fatalf("first pop %q, want %q (a sub-lookahead event pops without a flush)", log[0], want)
	}
	// j1's 20 arrivals span 10µs … 10µs+3·7+4·3 ns, so "above" is pop 22.
	if want := "above@20000/f1"; log[21] != want {
		t.Fatalf("pop 22 is %q, want %q\n  trace: %v", log[21], want, log)
	}
}

// TestShardTieBreakAcrossWheels pins the one tie-break rule. A job's sequence block is
// reserved at the flush, after every event pending by then, so at an
// instant the job stages arrivals for, every pending event — scheduled
// before OR after the job registered — pops first, without flushing; the
// staged arrivals follow in block order (shard order for this job), and an
// event scheduled once they are in the wheel follows them.
func TestShardTieBreakAcrossWheels(t *testing.T) {
	at := 100 * us
	log, _ := replayed(t, func(tr *trace) {
		j := &recJob{tr: tr, name: "j", base: at, perShard: 1}
		tr.mark(at, "before")
		j.submit()
		tr.mark(at, "after")
		tr.s.At(at, func() {
			tr.note("late-scheduler")
			tr.mark(at, "late") // same instant again: still ahead of the window
		})
	})
	want := []string{
		"before@100000/f0", "after@100000/f0", "late-scheduler@100000/f0", "late@100000/f0",
		"j.0.0@100000/f1", "j.1.0@100000/f1", "j.2.0@100000/f1", "j.3.0@100000/f1",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("tie-break order\n  got:  %v\n  want: %v", log, want)
	}
}

// TestShardWindowStagesJobsInRegistrationOrder: two jobs of one window,
// inserting arrivals at one shared instant, are sealed — and so ordered — in
// registration order, each in its own block order; the window is flushed as
// a whole.
func TestShardWindowStagesJobsInRegistrationOrder(t *testing.T) {
	log, out := replayed(t, func(tr *trace) {
		a := &recJob{tr: tr, name: "a", base: 50 * us, perShard: 2}
		b := &recJob{tr: tr, name: "b", base: 50 * us, perShard: 1}
		a.submit()
		tr.mark(10*us, "mid") // pops inside the window, which stays open
		b.submit()
	})
	want := []string{"mid@10000/f0",
		"a.0.0@50000/f1", "a.0.1@50000/f1", "a.1.0@50000/f1", "a.1.1@50000/f1",
		"a.2.0@50000/f1", "a.2.1@50000/f1", "a.3.0@50000/f1", "a.3.1@50000/f1",
		"b.0.0@50000/f1", "b.1.0@50000/f1", "b.2.0@50000/f1", "b.3.0@50000/f1"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("insertion order\n  got:  %v\n  want: %v", log, want)
	}
	if out.Stats.PoolFlushes != 1 || out.Stats.BurstJobs != 2 {
		t.Fatalf("two jobs of one window must share one flush: %+v", out.Stats)
	}
}

// TestShardStagedNeverPrecedesEarliest: the window stays open — no flush —
// for every pop up to and including the declared earliest instant, closes
// at the first pop strictly past it, and no expanded event fires before the
// bound. A later-registered job with an earlier bound tightens it.
func TestShardStagedNeverPrecedesEarliest(t *testing.T) {
	log, _ := replayed(t, func(tr *trace) {
		far := &recJob{tr: tr, name: "far", base: 30 * us, step: 1, perShard: 1}
		far.submit()
		tr.mark(29*us, "under")
		tr.mark(30*us, "tie")
		tr.mark(30*us+2, "between") // past the bound, amid the expanded arrivals
		tr.s.At(60*us, func() {
			loose := &recJob{tr: tr, name: "loose", base: 20 * us, perShard: 1}
			tight := &recJob{tr: tr, name: "tight", base: 5 * us, perShard: 1}
			loose.submit()
			tight.submit()
			tr.mark(65*us, "tie2")
			tr.mark(70*us, "over2")
		})
	})
	want := []string{
		"under@29000/f0", "tie@30000/f0",
		"far.0.0@30000/f1", "far.1.0@30001/f1", "between@30002/f1", "far.2.0@30002/f1", "far.3.0@30003/f1",
		"tie2@65000/f1",
		"tight.0.0@65000/f2", "tight.1.0@65000/f2", "tight.2.0@65000/f2", "tight.3.0@65000/f2",
		"over2@70000/f2",
		"loose.0.0@80000/f2", "loose.1.0@80000/f2", "loose.2.0@80000/f2", "loose.3.0@80000/f2",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("window bounds\n  got:  %v\n  want: %v", log, want)
	}
}

// TestLookaheadStopOpensNoSlotPastWindow guards the stop in advance: a window
// registered with its earliest instant before a far pending event is flushed
// before the far event's slot opens, so its events land in their own buckets
// — none in the late heap of the far slot — and everything pops in (at, seq)
// order, the far event last.
func TestLookaheadStopOpensNoSlotPastWindow(t *testing.T) {
	s := New(WithShards(4))
	defer s.Release()
	tr := &trace{s: s}
	tr.mark(1000*us, "far")
	(&recJob{tr: tr, name: "j", base: 100 * us, step: 20 * us, stride: us, perShard: 3}).submit()
	var last event
	for i := 0; ; i++ {
		if _, ok := s.next(); !ok {
			break
		}
		if n := len(s.wheel.late); n != 0 {
			t.Fatalf("pop %d: %d events in the late heap of slot %d (window earliest in slot %d)",
				i, n, s.wheel.curSlot, slotOf(100*us))
		}
		ev := s.wheel.popHead()
		if i > 0 && !last.before(&ev) {
			t.Fatalf("pop %d: (at=%d seq=%d) after (at=%d seq=%d)", i, ev.at, ev.seq, last.at, last.seq)
		}
		last = ev
		s.now = ev.at
		ev.ev.Fire()
	}
	if len(tr.lines) != 13 || tr.lines[12] != "far@1000000/f1" {
		t.Fatalf("pops %v, want the 12 staged events and then far@1000000/f1", tr.lines)
	}
}

// TestSubmitSealedUnshardedPanics pins the misuse guard.
func TestSubmitSealedUnshardedPanics(t *testing.T) {
	s := New()
	defer s.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("SubmitSealed on an unsharded scheduler did not panic")
		}
	}()
	s.SubmitSealed(&recJob{tr: &trace{s: s}}, 0)
}

// TestShardedDeadlineWithOutstandingJobs checks the abort path: a deadline
// below every expanded arrival aborts the run, and neither the expanded
// events nor the plain event past the deadline fire.
func TestShardedDeadlineWithOutstandingJobs(t *testing.T) {
	log, out := replayed(t, func(tr *trace) {
		(&recJob{tr: tr, name: "j", base: 50 * us, perShard: 1}).submit()
		tr.mark(20*us, "main")
	}, WithDeadline(10*us))
	if !out.DeadlineExceeded {
		t.Fatalf("expected DeadlineExceeded, got %+v", out)
	}
	if len(log) != 0 {
		t.Fatalf("events past the deadline fired: %v", log)
	}
}

// TestWithShardsZeroIsUnsharded pins the no-op contract of the option, its
// cap, and that the ignored trailing argument is still accepted.
func TestWithShardsZeroIsUnsharded(t *testing.T) {
	s := New(WithShards(0, 8))
	defer s.Release()
	if s.ShardCount() != 0 {
		t.Fatalf("WithShards(0, 8) sharded the scheduler: shards=%d", s.ShardCount())
	}
	capped := New(WithShards(NumShards + 5))
	defer capped.Release()
	if capped.ShardCount() != NumShards {
		t.Fatalf("WithShards beyond NumShards: shards=%d, want %d", capped.ShardCount(), NumShards)
	}
	if ShardsFor(255) != 0 || ShardsFor(256) != 2 || ShardsFor(512) != 4 ||
		ShardsFor(1024) != 8 || ShardsFor(2048) != NumShards || ShardsFor(100000) != NumShards {
		t.Fatalf("ShardsFor tiering wrong: %d %d %d %d %d %d", ShardsFor(255), ShardsFor(256),
			ShardsFor(512), ShardsFor(1024), ShardsFor(2048), ShardsFor(100000))
	}
}

// TestShardedSchedulerOwnsItsSlots: a sharded scheduler's wheel storage is
// its own and travels with it through Recycle as an unsharded one's does. A
// run cut by its step budget with events pending in every tier — buckets,
// the open slot's run and late heap, the overflow heap — once cleared holds
// no event in any tier or on its free list, no job and no shard, keeps its
// bucket array and chunks, and runs the same schedule again pop for pop as a
// scheduler built afresh.
func TestShardedSchedulerOwnsItsSlots(t *testing.T) {
	const cut = 150
	build := func(tr *trace) {
		s := tr.s
		var tick func()
		tick = func() { tr.note("tick"); s.After(us, tick) }
		s.At(0, tick)
		tr.mark(2*Time(wheelSlots)<<slotWidthShift, "beyond the horizon")
		(&recJob{tr: tr, name: "j", base: 100 * us, step: 20 * us, stride: us, perShard: 60}).submit()
	}
	run := func(s *Scheduler) ([]string, Outcome) {
		s.apply(WithShards(4))
		s.apply(WithMaxSteps(cut))
		tr := &trace{s: s}
		build(tr)
		out := s.Run()
		if !out.StepsExceeded {
			t.Fatalf("run was not cut: %+v", out)
		}
		return tr.lines, out
	}
	fresh := func() *Scheduler {
		s := &Scheduler{earliest: maxTime}
		s.ins.s = s
		return s
	}

	s := fresh()
	lines, out := run(s)
	w := &s.wheel
	if w.wheelCount == 0 || len(w.order) == 0 || len(w.late) == 0 || len(w.overflow) == 0 {
		t.Fatalf("at the cut %d in buckets, %d in the run, %d late, %d in overflow: every tier must hold one",
			w.wheelCount, len(w.order), len(w.late), len(w.overflow))
	}
	slots := w.slots
	s.reset()
	if w.slots != slots || s.shards != 0 || len(s.jobs) != 0 || s.now != 0 {
		t.Fatalf("reset left array %p (had %p), %d shards, %d jobs, now=%d", w.slots, slots, s.shards, len(s.jobs), s.now)
	}
	if checkNoEvent(t, w) == 0 {
		t.Fatal("the sharded scheduler kept no chunk of the storage its run grew")
	}
	again, outAgain := run(s)
	if !reflect.DeepEqual(again, lines) || outAgain != out {
		t.Fatalf("a cleared sharded scheduler runs differently:\n%v %+v\nwant\n%v %+v", again, outAgain, lines, out)
	}
	if _, outFresh := run(fresh()); outFresh != out {
		t.Fatalf("outcome %+v on a new scheduler, %+v on the first", outFresh, out)
	}
}
