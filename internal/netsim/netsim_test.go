package netsim

import (
	"math/rand/v2"
	"testing"
	"time"

	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/vclock"
)

// onScheduler builds an n-process network on a fresh scheduler and runs
// body as its only coroutine, bound to every inbox — so body can send and
// receive as any process. It returns the network (shut down) and the run's
// outcome.
func onScheduler(t testing.TB, n int, body func(nw *Network), opts ...Option) (*Network, vclock.Outcome) {
	t.Helper()
	s := vclock.New()
	nw, err := New(n, append(opts, WithScheduler(s))...)
	if err != nil {
		t.Fatal(err)
	}
	proc := s.Spawn("test", func() { body(nw) })
	for p := 0; p < n; p++ {
		nw.Bind(model.ProcID(p), proc)
	}
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
	onScheduler(t, 3, func(nw *Network) {
		nw.Send(0, 2, "hello")
		m, ok := nw.Receive(2)
		if !ok {
			t.Error("Receive failed")
			return
		}
		if m.From != 0 || m.To != 2 || m.Payload != "hello" {
			t.Errorf("message = %+v", m)
		}
	})
}

func TestSendToInvalidRecipientIgnored(t *testing.T) {
	t.Parallel()
	var c metrics.Counters
	nw, out := onScheduler(t, 2, func(nw *Network) {
		nw.Send(0, 7, "x")  // silently dropped
		nw.Send(0, -1, "x") // silently dropped
	}, WithCounters(&c))
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
	onScheduler(t, n, func(nw *Network) {
		nw.Broadcast(1, 42)
		for p := 0; p < n; p++ {
			m, ok := nw.Receive(model.ProcID(p))
			if !ok || m.Payload != 42 || m.From != 1 {
				t.Errorf("process %d: message = %+v ok=%v", p, m, ok)
			}
		}
	})
}

func TestBroadcastSubsetPartialDelivery(t *testing.T) {
	t.Parallel()
	onScheduler(t, 5, func(nw *Network) {
		nw.BroadcastSubset(0, "crash", []model.ProcID{1, 3})
		// Consuming the first arrival lets the (same-instant) fanout fire.
		if _, ok := nw.Receive(1); !ok {
			t.Error("recipient 1 got nothing")
		}
		if queued(nw, 3) != 1 {
			t.Error("recipient 3 should have one pending message")
		}
		for _, p := range []model.ProcID{0, 2, 4} {
			if queued(nw, p) != 0 {
				t.Errorf("process %v should have no pending messages", p)
			}
		}
	})
}

func TestCloseInboxDropsNewKeepsQueued(t *testing.T) {
	t.Parallel()
	onScheduler(t, 2, func(nw *Network) {
		nw.Send(0, 1, "before")
		nw.Send(0, 0, "tick")
		nw.Receive(0) // yields: both deliveries fire, "before" is queued at p1
		nw.CloseInbox(1)
		nw.Send(0, 1, "after")
		m, ok := nw.Receive(1)
		if !ok || m.Payload != "before" {
			t.Errorf("first Receive = %+v,%v", m, ok)
		}
		if _, ok := nw.Receive(1); ok {
			t.Error("message sent after CloseInbox was delivered")
		}
	})
}

func TestUniformDelayDeliversEverything(t *testing.T) {
	t.Parallel()
	const n, msgs = 4, 50
	seen := make(map[int]bool, msgs)
	onScheduler(t, n, func(nw *Network) {
		for i := 0; i < msgs; i++ {
			nw.Send(0, 1, i)
		}
		for i := 0; i < msgs; i++ {
			m, ok := nw.Receive(1)
			if !ok {
				t.Errorf("Receive #%d failed", i)
				return
			}
			v := m.Payload.(int)
			if seen[v] {
				t.Errorf("duplicate delivery of %d", v)
			}
			seen[v] = true
		}
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
	_, out := onScheduler(t, 3, func(nw *Network) {
		nw.Broadcast(0, "x")
		if m, ok := nw.Receive(2); !ok || m.Payload != "x" {
			t.Errorf("undelayed Receive = %+v,%v", m, ok)
		}
		if queued(nw, 1) != 0 {
			t.Error("delayed recipient has the message before its transit time")
		}
		if m, ok := nw.Receive(1); !ok || m.Payload != "x" {
			t.Errorf("delayed Receive = %+v,%v", m, ok)
		}
	}, slowTo1)
	if out.Now != vclock.Time(time.Millisecond) {
		t.Errorf("run ended at %v, want 1ms (the delayed transit)", out.Now)
	}
}

func TestCountersWired(t *testing.T) {
	t.Parallel()
	var c metrics.Counters
	const n = 3
	onScheduler(t, n, func(nw *Network) {
		nw.Broadcast(0, "b") // n sends
		nw.Send(1, 2, "s")   // 1 send
		for p := 0; p < n; p++ {
			nw.Receive(model.ProcID(p))
		}
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
