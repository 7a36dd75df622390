package vclock

// Sharded-scheduler unit tests: the expansion pool and the merged pop path
// in isolation from netsim — synthetic Jobs staging events with known
// (at, seq) keys, checked for global pop order, the one lookahead/tie-break
// rule, worker-count independence of the schedule AND of the stats, and
// pool teardown on every exit path.

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

const us = Time(time.Microsecond)

// trace is a pop log: every fired event appends one line, under the token
// (Fire), so no synchronization is needed. Lines carry the pool-flush count
// seen at fire time, which pins WHEN the window closed, not just the order.
type trace struct {
	s     *Scheduler
	lines []string
}

func (tr *trace) note(what string) {
	tr.lines = append(tr.lines, fmt.Sprintf("%s@%d/f%d", what, tr.s.Now(), tr.s.Stats().PoolFlushes))
}

// mark schedules a main-wheel event that logs name.
func (tr *trace) mark(at Time, name string) {
	tr.s.At(at, func() { tr.note(name) })
}

// recJob is a synthetic expansion job: shard s stages perShard events at
// instants at+base+s·step+k·stride, from a block of shards·perShard
// sequence numbers laid out shard-major — plus pad unused ones: a job padded
// to poolMinSeqs sends its window to the pool's workers (at Workers > 1),
// an unpadded one expands inline on the token.
type recJob struct {
	tr       *trace
	name     string
	at       Time // registration instant
	base     Time // earliest arrival offset from at
	step     Time
	stride   Time
	perShard int
	pad      uint64
}

func (j *recJob) Seal() (uint64, int64) {
	return uint64(j.tr.s.ShardCount()*j.perShard) + j.pad, 1
}

func (j *recJob) ExpandShard(shard int, seqBase uint64, ins *ShardInserter) {
	for k := 0; k < j.perShard; k++ {
		at := j.at + j.base + Time(shard)*j.step + Time(k)*j.stride
		what := fmt.Sprintf("%s.%d.%d", j.name, shard, k)
		ins.At(at, seqBase+uint64(shard*j.perShard+k), eventFunc(func() { j.tr.note(what) }))
	}
}

// submit registers j now, declaring its true earliest arrival.
func (j *recJob) submit() {
	j.at = j.tr.s.Now()
	j.tr.s.SubmitSealed(j, j.at+j.base)
}

// atEveryWidth runs build on a fresh 4-shard scheduler at Workers 1, 2 and
// 4 (plus NumCPU) and fails unless the pop trace and the Outcome — every
// stats counter included — are identical at all of them. It returns the
// reference run.
func atEveryWidth(t *testing.T, build func(tr *trace), opts ...Option) ([]string, Outcome) {
	t.Helper()
	run := func(workers int) ([]string, Outcome) {
		s := New(append([]Option{WithShards(4, workers)}, opts...)...)
		defer s.Release()
		tr := &trace{s: s}
		build(tr)
		// Pure-event schedulers (no processes) drain the wheels completely,
		// so nothing is cut short by the last coroutine finishing.
		return tr.lines, s.Run()
	}
	refLog, refOut := run(1)
	for _, w := range []int{2, 4, runtime.NumCPU()} {
		log, out := run(w)
		if !reflect.DeepEqual(refLog, log) {
			t.Fatalf("workers=%d: pop trace diverged\n  ref: %v\n  got: %v", w, refLog, log)
		}
		if !reflect.DeepEqual(refOut, out) {
			t.Fatalf("workers=%d: outcome diverged\n  ref: %+v\n  got: %+v", w, refOut, out)
		}
	}
	return refLog, refOut
}

// TestShardPopOrderAndWorkerIndependence checks the tentpole contract at
// the scheduler level on a schedule that registers jobs at t=0 and t=40µs
// with interleaved main-wheel events, exercising both the drain-before-flush
// path (main events at or below the lookahead bound) and the flush-on-demand
// path (a main event past it) — and both arms of the dispatch rule: j1's
// window is large enough for the workers, j2's expands inline.
func TestShardPopOrderAndWorkerIndependence(t *testing.T) {
	log, out := atEveryWidth(t, func(tr *trace) {
		j1 := &recJob{tr: tr, name: "j1", base: 10 * us, step: 7, stride: 3, perShard: 5, pad: poolMinSeqs}
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
	if st.BurstJobs != 2 || st.ExpandJobs != 2 || st.ShardEvents != 36 || st.PoolFlushes != 2 {
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
// event scheduled once they are in the wheels follows them.
func TestShardTieBreakAcrossWheels(t *testing.T) {
	at := 100 * us
	log, _ := atEveryWidth(t, func(tr *trace) {
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
// staging arrivals at one shared instant, are sealed — and so ordered — in
// registration order, each in its own block order; the window is dispatched
// to the workers as a whole.
func TestShardWindowStagesJobsInRegistrationOrder(t *testing.T) {
	log, out := atEveryWidth(t, func(tr *trace) {
		a := &recJob{tr: tr, name: "a", base: 50 * us, perShard: 2, pad: poolMinSeqs}
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
		t.Fatalf("staging order\n  got:  %v\n  want: %v", log, want)
	}
	if out.Stats.PoolFlushes != 1 || out.Stats.BurstJobs != 2 {
		t.Fatalf("two jobs of one window must share one flush: %+v", out.Stats)
	}
}

// TestShardStagedNeverPrecedesEarliest: the window stays open — no flush —
// for every pop up to and including the declared earliest instant, closes
// at the first pop strictly past it, and no staged event fires before the
// bound. A later-registered job with an earlier bound tightens it.
func TestShardStagedNeverPrecedesEarliest(t *testing.T) {
	log, _ := atEveryWidth(t, func(tr *trace) {
		far := &recJob{tr: tr, name: "far", base: 30 * us, step: 1, perShard: 1}
		far.submit()
		tr.mark(29*us, "under")
		tr.mark(30*us, "tie")
		tr.mark(30*us+2, "between") // past the bound, amid the staged arrivals
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

// TestShardedReleaseWithoutRunStopsPool is the pool analogue of
// TestReleaseWithoutRunFreesGoroutines: Release must leave no worker behind,
// whether the pool has spawned (a flush ran) or not, with a job still
// registered either way.
func TestShardedReleaseWithoutRunStopsPool(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		s := New(WithShards(4, 4))
		tr := &trace{s: s}
		s.Spawn("p", func() {})
		(&recJob{tr: tr, name: "j", base: 5, perShard: 1, pad: poolMinSeqs}).submit()
		if i%2 == 1 {
			s.nextWheel() // empty wheels: flushes the job, spawning the pool
			if !s.poolUp {
				t.Fatal("a window of poolMinSeqs sequence numbers did not reach the pool")
			}
			(&recJob{tr: tr, name: "k", base: 5, perShard: 1}).submit()
		}
		s.Release()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after release", before, g)
	}
}

// TestShardedDeadlineWithOutstandingJobs checks the abort path: a deadline
// below every staged arrival aborts the run, and neither the staged events
// nor the main event past the deadline fire.
func TestShardedDeadlineWithOutstandingJobs(t *testing.T) {
	log, out := atEveryWidth(t, func(tr *trace) {
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

// TestWithShardsZeroIsUnsharded pins the no-op contract of the option.
func TestWithShardsZeroIsUnsharded(t *testing.T) {
	s := New(WithShards(0, 8))
	defer s.Release()
	if s.ShardCount() != 0 || s.Workers() != 0 {
		t.Fatalf("WithShards(0, 8) sharded the scheduler: shards=%d workers=%d", s.ShardCount(), s.Workers())
	}
	capped := New(WithShards(NumShards+5, NumShards+9))
	defer capped.Release()
	if capped.ShardCount() != NumShards || capped.Workers() != NumShards {
		t.Fatalf("WithShards beyond NumShards: shards=%d workers=%d, want both %d", capped.ShardCount(), capped.Workers(), NumShards)
	}
	if ShardsFor(255) != 0 || ShardsFor(256) != 2 || ShardsFor(512) != 4 ||
		ShardsFor(1024) != 8 || ShardsFor(2048) != NumShards || ShardsFor(100000) != NumShards {
		t.Fatalf("ShardsFor tiering wrong: %d %d %d %d %d %d", ShardsFor(255), ShardsFor(256),
			ShardsFor(512), ShardsFor(1024), ShardsFor(2048), ShardsFor(100000))
	}
}

// goid returns the calling goroutine's id, read off its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// whoJob stages one event per shard and records which goroutine expanded
// each shard; its window reserves exactly seqs sequence numbers.
type whoJob struct {
	seqs uint64
	who  [4]string
}

func (j *whoJob) Seal() (uint64, int64) { return j.seqs, 3 }

func (j *whoJob) ExpandShard(shard int, seqBase uint64, ins *ShardInserter) {
	j.who[shard] = goid()
	ins.At(Time(100+shard), seqBase+uint64(shard), eventFunc(func() {}))
	ins.NotePayloadBytes(10)
}

// TestFlushDispatchRule pins the one dispatch decision of flush. A window one
// sequence number short of poolMinSeqs expands on the calling goroutine and
// starts no worker; a window of exactly poolMinSeqs expands off it — unless
// the pool is one worker wide; and the two stage the same (at, seq) keys in
// the same shard wheels and count the same SchedulerStats.
func TestFlushDispatchRule(t *testing.T) {
	type staged struct {
		shard int
		ev    event
	}
	run := func(workers int, seqs uint64) (who [4]string, pooled bool, evs []staged, st SchedulerStats) {
		s := New(WithShards(4, workers))
		defer s.Release()
		s.At(5, func() {}) // the window's block starts after a pending event's seq
		j := &whoJob{seqs: seqs}
		s.SubmitSealed(j, 100)
		s.flush()
		for i := range s.shards {
			s.shards[i].each(func(ev event) {
				evs = append(evs, staged{i, event{at: ev.at, seq: ev.seq}})
			})
		}
		return j.who, s.poolUp, evs, s.Stats()
	}
	me := goid()
	wantEvs := []staged{{0, event{at: 100, seq: 2}}, {1, event{at: 101, seq: 3}}, {2, event{at: 102, seq: 4}}, {3, event{at: 103, seq: 5}}}
	var wantStats SchedulerStats
	for _, c := range []struct {
		name    string
		workers int
		seqs    uint64
		pooled  bool
	}{
		{"below the threshold", 2, poolMinSeqs - 1, false},
		{"at the threshold", 2, poolMinSeqs, true},
		{"at the threshold, four workers", 4, poolMinSeqs, true},
		{"at the threshold, one worker", 1, poolMinSeqs, false},
	} {
		who, pooled, evs, st := run(c.workers, c.seqs)
		if pooled != c.pooled {
			t.Errorf("%s: pool spawned = %v, want %v", c.name, pooled, c.pooled)
		}
		for shard, g := range who {
			if (g != me) != c.pooled {
				t.Errorf("%s: shard %d expanded on goroutine %s, the caller is %s", c.name, shard, g, me)
			}
		}
		if !reflect.DeepEqual(evs, wantEvs) {
			t.Errorf("%s: staged %+v, want %+v", c.name, evs, wantEvs)
		}
		if wantStats == (SchedulerStats{}) {
			wantStats = st
			if st.PoolFlushes != 1 || st.ExpandJobs != 3 || st.ShardEvents != 4 || st.PooledPayloadBytes != 40 || st.MaxShardStage != 1 {
				t.Errorf("%s: unexpected stats %+v", c.name, st)
			}
		}
		if st != wantStats {
			t.Errorf("%s: stats %+v differ from the inline window's %+v", c.name, st, wantStats)
		}
	}
}
