package driver

import (
	"testing"
	"time"

	"allforone/internal/failures"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/vclock"
)

// pingReactor is a tiny ping protocol: broadcast once, then count n
// receipts.
type pingReactor struct {
	nw      *netsim.Network
	h       *Handle
	n       int
	i       int
	got     *int
	started bool
}

func (r *pingReactor) React(aborted bool) bool {
	if aborted {
		return true
	}
	if !r.started {
		r.started = true
		r.nw.Broadcast(model.ProcID(r.i), r.i)
	}
	for *r.got < r.n {
		_, ok, closed := r.nw.ReceiveNow(model.ProcID(r.i))
		if !ok {
			if closed {
				return true
			}
			return false // park until the next delivery
		}
		if r.h.Killed() {
			return true
		}
		*r.got++
	}
	return true
}

// Every reactor broadcasts its id and drains n messages via ReceiveNow.
// Exercises spawn, Bind, delivery events, and CloseInbox.
func TestRunHandlersPing(t *testing.T) {
	t.Parallel()
	const n = 5
	var ctr metrics.Counters
	var nw *netsim.Network
	got := make([]int, n)
	newNet := func(clock *vclock.Scheduler) (*netsim.Network, error) {
		var err error
		nw, err = echoNet(n, 42, &ctr)(clock)
		return nw, err
	}
	out, err := RunHandlers(Config{}, n, newNet,
		func(i int, h *Handle) Reactor {
			return &pingReactor{nw: nw, h: h, n: n, i: i, got: &got[i]}
		})
	if err != nil {
		t.Fatal(err)
	}
	if out.Quiesced || out.BoundedOut() {
		t.Fatalf("outcome = %+v", out)
	}
	for i, g := range got {
		if g != n {
			t.Errorf("proc %d received %d messages, want %d", i, g, n)
		}
	}
	if d := ctr.Read().MsgsDelivered; d != n*n {
		t.Errorf("MsgsDelivered = %d, want %d", d, n*n)
	}
}

// waitReactor waits for one message that never comes.
type waitReactor struct {
	nw      *netsim.Network
	i       int
	blocked *bool
}

func (r *waitReactor) React(aborted bool) bool {
	if aborted {
		*r.blocked = true
		return true
	}
	_, ok, closed := r.nw.ReceiveNow(model.ProcID(r.i))
	return ok || closed
}

// A reactor blocked on a receive that can never be satisfied quiesces the
// run at once, with no wall-clock timeout, instead of hanging it.
func TestRunHandlersQuiescence(t *testing.T) {
	t.Parallel()
	const n = 3
	var nw *netsim.Network
	newNet := func(clock *vclock.Scheduler) (*netsim.Network, error) {
		var err error
		nw, err = echoNet(n, 7, nil)(clock)
		return nw, err
	}
	blocked := make([]bool, n)
	out, err := RunHandlers(Config{}, n, newNet,
		func(i int, h *Handle) Reactor {
			return &waitReactor{nw: nw, i: i, blocked: &blocked[i]}
		})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Quiesced {
		t.Fatalf("outcome = %+v, want Quiesced", out)
	}
	for i, b := range blocked {
		if !b {
			t.Errorf("reactor %d never observed the abort invocation", i)
		}
	}
}

// echoForeverReactor echoes every message back to its sender, forever.
type echoForeverReactor struct {
	nw      *netsim.Network
	h       *Handle
	i       int
	started bool
	echoed  *int
}

func (r *echoForeverReactor) React(aborted bool) bool {
	if aborted {
		return true
	}
	if !r.started {
		r.started = true
		r.nw.Broadcast(model.ProcID(r.i), r.i)
	}
	for {
		m, ok, closed := r.nw.ReceiveNow(model.ProcID(r.i))
		if !ok {
			return closed
		}
		if r.h.Killed() {
			return true
		}
		*r.echoed++
		r.nw.Send(model.ProcID(r.i), m.From, r.i)
	}
}

// A timed crash halts a reactor at its next step point: the victim stops
// echoing while the survivors keep running until quiescence.
func TestRunHandlersTimedCrash(t *testing.T) {
	t.Parallel()
	const n = 3
	var nw *netsim.Network
	newNet := func(clock *vclock.Scheduler) (*netsim.Network, error) {
		var err error
		nw, err = echoNet(n, 9, nil)(clock)
		return nw, err
	}
	crashes := failures.NewSchedule(n)
	if err := crashes.SetTimed(0, 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	echoed := make([]int, n)
	out, err := RunHandlers(
		Config{
			Crashes:  crashes,
			MaxSteps: 100_000, // echo ping-pong never terminates on its own
		},
		n, newNet,
		func(i int, h *Handle) Reactor {
			return &echoForeverReactor{nw: nw, h: h, i: i, echoed: &echoed[i]}
		})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Quiesced && !out.BoundedOut() {
		t.Fatalf("outcome = %+v, want aborted (echo storm is unbounded)", out)
	}
	if echoed[0] == 0 || echoed[1] == 0 || echoed[2] == 0 {
		t.Fatalf("every reactor should echo at least once, got %v", echoed)
	}
}
