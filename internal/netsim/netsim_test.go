package netsim

import (
	"math/rand/v2"
	"testing"
	"time"

	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/vclock"
)

// spawn adds a handler process to s, bound to the inboxes ps of nw: its
// first invocation runs start, if any, and every invocation then calls react
// — a test body cut at its receives, which drains with ReceiveNow — until
// react reports the process finished. An aborted run finishes it without
// calling react.
func spawn(s *vclock.Scheduler, nw *Network, ps []model.ProcID, start func(), react func() bool) *vclock.Proc {
	var proc *vclock.Proc
	proc = s.SpawnHandler("test", func(aborted bool) {
		if start != nil {
			start()
			start = nil
		}
		if aborted || react() {
			proc.Finish()
		}
	})
	for _, p := range ps {
		nw.Bind(p, proc)
	}
	return proc
}

// onScheduler builds an n-process network on a fresh scheduler and runs
// start and react (see spawn) as its only process, bound to every inbox —
// so it can send and receive as any process. It returns the network (shut
// down) and the run's outcome.
func onScheduler(t testing.TB, n int, start func(nw *Network), react func(nw *Network) bool, opts ...Option) (*Network, vclock.Outcome) {
	t.Helper()
	s := vclock.New()
	nw, err := New(n, append(opts, WithScheduler(s))...)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]model.ProcID, n)
	for p := range all {
		all[p] = model.ProcID(p)
	}
	spawn(s, nw, all, func() { start(nw) }, func() bool { return react(nw) })
	out := s.Run()
	nw.Shutdown()
	return nw, out
}

// queued returns the number of delivered, unconsumed messages in p's inbox.
func queued(nw *Network, p model.ProcID) int { return nw.vboxes[p].Len() }

func TestNewValidation(t *testing.T) {
	t.Parallel()
	s := vclock.New()
	if _, err := New(0, WithScheduler(s)); err == nil {
		t.Error("New(0) should fail")
	}
	if _, err := New(-3, WithScheduler(s)); err == nil {
		t.Error("New(-3) should fail")
	}
	if _, err := New(4); err == nil {
		t.Error("New without WithScheduler should fail")
	}
	nw, err := New(4, WithScheduler(s))
	if err != nil {
		t.Fatalf("New(4): %v", err)
	}
	if nw.N() != 4 {
		t.Errorf("N = %d, want 4", nw.N())
	}
	nw.Shutdown()
}

func TestSendReceive(t *testing.T) {
	t.Parallel()
	var got []Message
	onScheduler(t, 3, func(nw *Network) { nw.Send(0, 2, "hello") }, func(nw *Network) bool {
		m, ok, _ := nw.ReceiveNow(2)
		if ok {
			got = append(got, m)
		}
		return ok
	})
	if len(got) != 1 || got[0].From != 0 || got[0].To != 2 || got[0].Payload != "hello" {
		t.Errorf("received %+v, want the one hello", got)
	}
}

func TestSendToInvalidRecipientIgnored(t *testing.T) {
	t.Parallel()
	var c metrics.Counters
	nw, out := onScheduler(t, 2, func(nw *Network) {
		nw.Send(0, 7, "x")  // silently dropped
		nw.Send(0, -1, "x") // silently dropped
	}, func(*Network) bool { return true }, WithCounters(&c))
	if got := queued(nw, 0) + queued(nw, 1); got != 0 {
		t.Errorf("pending = %d, want 0", got)
	}
	if sent := c.Read().MsgsSent; sent != 0 || out.Stats.EventsScheduled != 0 {
		t.Errorf("MsgsSent = %d, events scheduled = %d, want none", sent, out.Stats.EventsScheduled)
	}
}

func TestBroadcastReachesAllIncludingSelf(t *testing.T) {
	t.Parallel()
	const n = 5
	p := 0
	onScheduler(t, n, func(nw *Network) { nw.Broadcast(1, 42) }, func(nw *Network) bool {
		for ; p < n; p++ {
			m, ok, _ := nw.ReceiveNow(model.ProcID(p))
			if !ok {
				return false
			}
			if m.Payload != 42 || m.From != 1 {
				t.Errorf("process %d: message = %+v", p, m)
			}
		}
		return true
	})
	if p != n {
		t.Errorf("%d of %d processes received the broadcast", p, n)
	}
}

func TestBroadcastSubsetPartialDelivery(t *testing.T) {
	t.Parallel()
	got := false
	onScheduler(t, 5, func(nw *Network) {
		nw.BroadcastSubset(0, "crash", []model.ProcID{1, 3})
	}, func(nw *Network) bool {
		// Waiting for the first arrival lets the (same-instant) fanout fire.
		if _, got, _ = nw.ReceiveNow(1); !got {
			return false
		}
		if queued(nw, 3) != 1 {
			t.Error("recipient 3 should have one pending message")
		}
		for _, p := range []model.ProcID{0, 2, 4} {
			if queued(nw, p) != 0 {
				t.Errorf("process %v should have no pending messages", p)
			}
		}
		return true
	})
	if !got {
		t.Error("recipient 1 got nothing")
	}
}

func TestCloseInboxDropsNewKeepsQueued(t *testing.T) {
	t.Parallel()
	var got []any
	ticked := false
	onScheduler(t, 2, func(nw *Network) {
		nw.Send(0, 1, "before")
		nw.Send(0, 0, "tick")
	}, func(nw *Network) bool {
		if !ticked {
			// Waiting for the tick lets both deliveries fire: "before" is
			// queued at p1.
			if _, ticked, _ = nw.ReceiveNow(0); !ticked {
				return false
			}
			nw.CloseInbox(1)
			nw.Send(0, 1, "after")
		}
		for {
			m, ok, closed := nw.ReceiveNow(1)
			if !ok {
				return closed
			}
			got = append(got, m.Payload)
		}
	})
	if len(got) != 1 || got[0] != "before" {
		t.Errorf("p1 received %v after CloseInbox, want [before]: queued kept, new dropped", got)
	}
}

func TestUniformDelayDeliversEverything(t *testing.T) {
	t.Parallel()
	const n, msgs = 4, 50
	seen := make(map[int]bool, msgs)
	onScheduler(t, n, func(nw *Network) {
		for i := 0; i < msgs; i++ {
			nw.Send(0, 1, i)
		}
	}, func(nw *Network) bool {
		for len(seen) < msgs {
			m, ok, _ := nw.ReceiveNow(1)
			if !ok {
				return false
			}
			v := m.Payload.(int)
			if seen[v] {
				t.Errorf("duplicate delivery of %d", v)
			}
			seen[v] = true
		}
		return true
	}, WithSeed(11), WithUniformDelay(0, 2*time.Millisecond))
	if len(seen) != msgs {
		t.Errorf("delivered %d distinct messages, want %d", len(seen), msgs)
	}
}

func TestTimedDelayFnCustomPolicy(t *testing.T) {
	t.Parallel()
	// Delay only messages to process 1; everything else immediate.
	slowTo1 := WithTimedDelayFn(func(_ time.Duration, _ *rand.Rand, m Message) time.Duration {
		if m.To == 1 {
			return time.Millisecond
		}
		return 0
	})
	var got []any
	_, out := onScheduler(t, 3, func(nw *Network) { nw.Broadcast(0, "x") }, func(nw *Network) bool {
		if len(got) == 0 {
			m, ok, _ := nw.ReceiveNow(2)
			if !ok {
				return false
			}
			got = append(got, m.Payload)
			if queued(nw, 1) != 0 {
				t.Error("delayed recipient has the message before its transit time")
			}
		}
		m, ok, _ := nw.ReceiveNow(1)
		if ok {
			got = append(got, m.Payload)
		}
		return ok
	}, slowTo1)
	if len(got) != 2 || got[0] != "x" || got[1] != "x" {
		t.Errorf("received %v, want x undelayed at p3, then x delayed at p2", got)
	}
	if out.Now != vclock.Time(time.Millisecond) {
		t.Errorf("run ended at %v, want 1ms (the delayed transit)", out.Now)
	}
}

func TestCountersWired(t *testing.T) {
	t.Parallel()
	var c metrics.Counters
	const n = 3
	p := 0
	onScheduler(t, n, func(nw *Network) {
		nw.Broadcast(0, "b") // n sends
		nw.Send(1, 2, "s")   // 1 send
	}, func(nw *Network) bool {
		for ; p < n; p++ {
			if _, ok, _ := nw.ReceiveNow(model.ProcID(p)); !ok {
				return false
			}
		}
		return true
	}, WithCounters(&c))
	s := c.Read()
	if s.MsgsSent != n+1 {
		t.Errorf("MsgsSent = %d, want %d", s.MsgsSent, n+1)
	}
	if s.Broadcasts != 1 {
		t.Errorf("Broadcasts = %d, want 1", s.Broadcasts)
	}
	if s.MsgsDelivered != n {
		t.Errorf("MsgsDelivered = %d, want %d", s.MsgsDelivered, n)
	}
}
