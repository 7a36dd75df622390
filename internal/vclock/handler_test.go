package vclock

import (
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"
	"unsafe"
)

// A handler proc is woken in the same FIFO order as coroutines: a run
// mixing both body forms interleaves them exactly as an all-coroutine run
// would.
func TestHandlerWakeOrderMatchesCoroutines(t *testing.T) {
	s := New()
	var got []string

	coro := s.Spawn("coro", func() {})
	_ = coro
	var ph, pc *Proc
	// Both park/idle immediately; each Wake then appends its tag.
	ph = s.SpawnHandler("h", func(aborted bool) {
		if aborted {
			ph.Finish()
			return
		}
		got = append(got, "h")
		if len(got) >= 4 {
			ph.Finish()
		}
	})
	pc = s.Spawn("c", func() {
		for pc.Park() {
			got = append(got, "c")
		}
	})

	// Wake the coroutine before the handler at t=10, the reverse at t=20.
	s.At(10, func() { pc.Wake(); ph.Wake() })
	s.At(20, func() { ph.Wake(); pc.Wake() })
	out := s.Run()
	if out.Quiesced != true {
		// pc parks forever after the last event; the run quiesces and both
		// unwind. (The handler observed aborted and finished.)
		t.Fatalf("outcome = %+v, want quiesced", out)
	}
	// Initial invocations run in spawn order (h before c has no "park
	// first" invocation to log; the handler's first invocation logs "h").
	want := []string{"h", "c", "h", "h", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("interleaving = %v, want %v", got, want)
	}
}

// A Wake that lands during the handler's own invocation re-invokes it
// immediately instead of losing the wakeup.
func TestHandlerRewake(t *testing.T) {
	s := New()
	calls := 0
	var p *Proc
	p = s.SpawnHandler("self", func(aborted bool) {
		calls++
		if calls == 1 {
			p.Wake() // signal self while running
			return
		}
		p.Finish()
	})
	out := s.Run()
	if calls != 2 {
		t.Fatalf("handler invoked %d times, want 2 (initial + rewake)", calls)
	}
	if out.Aborted() {
		t.Fatalf("outcome = %+v", out)
	}
}

// A handler that never Finishes and has no event left to wake it is
// quiescence, exactly like a coroutine blocked forever: the scheduler
// aborts and the handler sees aborted=true.
func TestHandlerQuiescence(t *testing.T) {
	s := New()
	sawAborted := false
	var p *Proc
	p = s.SpawnHandler("stuck", func(aborted bool) {
		if aborted {
			sawAborted = true
			p.Finish()
		}
		// else: return without Finish — parked forever
	})
	out := s.Run()
	if !out.Quiesced {
		t.Fatalf("outcome = %+v, want Quiesced", out)
	}
	if !sawAborted {
		t.Fatal("handler never observed the abort invocation")
	}
}

// A handler that ignores its aborted invocation (returns without Finish)
// is a protocol bug and panics the run rather than hanging it.
func TestHandlerIgnoringAbortPanics(t *testing.T) {
	s := New()
	s.SpawnHandler("rogue", func(aborted bool) {
		// Never Finish, even when told the run aborted.
	})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Run returned instead of panicking on a handler that ignored abort")
		}
	}()
	s.Run()
}

// Finish is idempotent, ends the run when the last process retires, and
// further Wakes of a finished handler are no-ops.
func TestHandlerFinish(t *testing.T) {
	s := New()
	calls := 0
	var p *Proc
	p = s.SpawnHandler("once", func(aborted bool) {
		calls++
		p.Finish()
		p.Finish() // idempotent
	})
	s.At(5, func() { p.Wake() }) // after Finish: must not re-invoke
	out := s.Run()
	if calls != 1 {
		t.Fatalf("handler invoked %d times after Finish, want 1", calls)
	}
	if !p.Done() {
		t.Fatal("proc not Done after Finish")
	}
	if out.Aborted() {
		t.Fatalf("outcome = %+v", out)
	}
}

// Park on a handler proc and Finish on a coroutine proc are protocol
// violations and panic.
func TestHandlerParkAndCoroutineFinishPanic(t *testing.T) {
	s := New()
	var ph *Proc
	ph = s.SpawnHandler("h", func(aborted bool) {
		defer ph.Finish()
		defer func() {
			if recover() == nil {
				t.Error("Park on a handler proc did not panic")
			}
		}()
		ph.Park()
	})
	var pc *Proc
	pc = s.Spawn("c", func() {
		defer func() {
			if recover() == nil {
				t.Error("Finish on a coroutine proc did not panic")
			}
		}()
		pc.Finish()
	})
	s.Run()
}

// Release on a scheduler whose Run is never called frees the goroutines
// Spawn started — the leak regression test for abandoned schedulers.
func TestReleaseWithoutRunFreesGoroutines(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()
	s := New()
	for i := 0; i < 50; i++ {
		p := s.Spawn("leaky", func() {})
		_ = p
		s.SpawnHandler("inline", func(aborted bool) {})
	}
	s.Release()
	// The 50 spawned goroutines unwind asynchronously after Release
	// resumes them; poll briefly for them to exit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Release", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Release is idempotent.
	s.Release()
}

// A panicking event callback unwinds Run; the deferred Release inside Run
// must free every parked coroutine goroutine rather than leaking it.
func TestRunPanicReleasesCoroutines(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()
	s := New()
	for i := 0; i < 20; i++ {
		var p *Proc
		p = s.Spawn("parked", func() {
			for p.Park() {
			}
		})
	}
	s.At(10, func() { panic("boom") })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Run swallowed the event panic")
			}
		}()
		s.Run()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after panicked Run", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// retireLog is a Deliverer that logs the processes it is told finished.
type retireLog []int

func (r *retireLog) Deliver(int, int, any) {}
func (r *retireLog) Retire(p int)          { *r = append(*r, p) }

// finishAt is a handler in its caller's storage that reports itself
// finished at its k-th invocation.
type finishAt struct {
	p    Proc
	k, n int
}

func (f *finishAt) React(bool) bool {
	f.n++
	return f.n == f.k
}

// A handler that reports itself finished retires exactly as Finish retires
// it, in the caller's storage, and the scheduler's network is told its spawn
// index, once; a SpawnHandler body that calls Finish is not reported. A Proc
// stays 32 bytes, so a record that holds one keeps it on one cache line; on a
// 32-bit platform, where its pointer and interface are half as wide, it is 20.
func TestInlineHandlerReportsFinished(t *testing.T) {
	want := uintptr(32)
	if strconv.IntSize == 32 {
		want = 20
	}
	if size := unsafe.Sizeof(Proc{}); size != want {
		t.Fatalf("a Proc is %d bytes, want %d", size, want)
	}
	s := New()
	var log retireLog
	if err := s.SetNetwork(&log); err != nil {
		t.Fatal(err)
	}
	var byFinish *Proc
	byFinish = s.SpawnHandler("f", func(bool) { byFinish.Finish() })
	procs := []*finishAt{{k: 1}, {k: 3}, {k: 2}}
	for _, f := range procs {
		s.Inline(&f.p, f)
	}
	for i := 1; i <= 4; i++ {
		s.At(Time(i), func() {
			for _, f := range procs {
				f.p.Wake()
			}
		})
	}
	out := s.Run()
	if out.Aborted() || s.live != 0 {
		t.Fatalf("run ended %+v with %d live", out, s.live)
	}
	for i, f := range procs {
		if !f.p.Done() || f.n != f.k {
			t.Fatalf("proc %d: done %v after %d invocations, want done after %d", i, f.p.Done(), f.n, f.k)
		}
	}
	if want := (retireLog{1, 3, 2}); !reflect.DeepEqual(log, want) {
		t.Fatalf("network told of finished processes %v, want %v", log, want)
	}
}
