package netsim

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"allforone/internal/model"
	"allforone/internal/vclock"
)

// arrival is one line of a delivery trace.
type arrival struct {
	At       vclock.Time
	From, To model.ProcID
	Payload  any
}

// tracedNet is an n-process virtual network whose every process is an
// inline handler that drains its inbox into one shared delivery trace (the
// appends run under the execution token, so the trace order is the
// schedule's). react, when set, additionally sees each message as its
// recipient consumes it.
type tracedNet struct {
	s     *vclock.Scheduler
	nw    *Network
	procs []*vclock.Proc
	trace []arrival
	react func(m Message)
}

func newTracedNet(t *testing.T, n int, opts ...Option) *tracedNet {
	t.Helper()
	tn := &tracedNet{s: vclock.New(vclock.WithShards(vclock.ShardsFor(n)))}
	nw, err := New(n, append([]Option{WithScheduler(tn.s), WithSeed(41)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	tn.nw = nw
	tn.procs = make([]*vclock.Proc, n)
	for i := range tn.procs {
		p := model.ProcID(i)
		tn.procs[i] = tn.s.SpawnHandler(fmt.Sprint("p", i), func(aborted bool) {
			if aborted {
				tn.procs[p].Finish()
				return
			}
			for {
				m, ok, _ := nw.ReceiveNow(p)
				if !ok {
					return
				}
				tn.trace = append(tn.trace, arrival{At: tn.s.Now(), From: m.From, To: m.To, Payload: m.Payload})
				if tn.react != nil {
					tn.react(m)
				}
			}
		})
		nw.Bind(p, tn.procs[i])
	}
	return tn
}

// TestDelayPolicyPrecedence is the regression test for the policy
// precedence, decided once for every send primitive: a timed function beats
// the uniform band whichever order the options come in, and of two timed
// functions (fn and timed) the later option is in force — on the unsharded
// (n=3) and the sharded (n=300) paths. Before the precedence was settled in
// one place, SendAll, Broadcast, BroadcastSubset and BurstSend drew from the
// band (1 ms) while Send called the function.
func TestDelayPolicyPrecedence(t *testing.T) {
	band := WithUniformDelay(time.Millisecond, time.Millisecond)
	fn := WithTimedDelayFn(func(time.Duration, *rand.Rand, Message) time.Duration { return 5 * time.Microsecond })
	timed := WithTimedDelayFn(func(time.Duration, *rand.Rand, Message) time.Duration { return 7 * time.Microsecond })
	cases := []struct {
		name string
		opts []Option
		want time.Duration
	}{
		{"band,fn", []Option{band, fn}, 5 * time.Microsecond},
		{"fn,band", []Option{fn, band}, 5 * time.Microsecond},
		{"band,fn,timed", []Option{band, fn, timed}, 7 * time.Microsecond},
		{"timed,fn,band", []Option{timed, fn, band}, 5 * time.Microsecond},
		{"band alone", []Option{band}, time.Millisecond},
	}
	for _, n := range []int{3, 300} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("n=%d/%s", n, tc.name), func(t *testing.T) {
				tn := newTracedNet(t, n, tc.opts...)
				if sharded := tn.nw.shards != nil; sharded != (n == 300) {
					t.Fatalf("sharded expansion engaged = %v at n=%d", sharded, n)
				}
				tn.s.At(0, func() {
					tn.nw.Send(0, 1, "Send")
					tn.nw.SendAll(0, "SendAll")
					tn.nw.Broadcast(0, "Broadcast")
					tn.nw.BroadcastSubset(0, "BroadcastSubset", []model.ProcID{1, 2})
					tn.nw.BurstSend(0, 2, "BurstSend")
				})
				tn.s.Run()
				if want := 1 + n + n + 2 + 1; len(tn.trace) != want {
					t.Fatalf("%d deliveries, want %d", len(tn.trace), want)
				}
				for _, a := range tn.trace {
					if a.At != vclock.Time(tc.want) {
						t.Fatalf("%v to p%d arrived at %v, want %v", a.Payload, a.To, time.Duration(a.At), tc.want)
					}
				}
			})
		}
	}
}

// viaBuilder is the BurstSendVia payload builder of the mixed-window test.
type viaBuilder struct{}

func (viaBuilder) BuildPayload(_ *Network, ctx any, arg uint64) (any, int) {
	return fmt.Sprintf("%v-%d", ctx, arg), 8
}

// mixedWindow runs the mixed-window schedule at n=300 (two 150-recipient
// stripes): four processes are woken at one instant, t0 = 100 µs, in a fixed
// order, and all their sends — three SendAlls, two BurstSends, two
// BurstSendVias — land in ONE expansion window, held open by the tie rule.
// The third woken process is the victim, which terminates (closes its inbox)
// when woken — between two sends of the window — unless closing says "pre"
// (it is closed before the run starts) or "never".
func mixedWindow(t *testing.T, closing string) ([]arrival, vclock.Outcome) {
	t.Helper()
	const (
		n      = 300
		victim = model.ProcID(170)
		t0     = 100 * time.Microsecond
	)
	// "go" messages take exactly t0; everything else a random 10–200 µs on
	// the drawing stream (the shard's, for sharded sends).
	delay := WithTimedDelayFn(func(_ time.Duration, rng *rand.Rand, m Message) time.Duration {
		if m.Payload == "go" {
			return t0
		}
		return 10*time.Microsecond + time.Duration(rng.Int64N(int64(190*time.Microsecond)))
	})
	tn := newTracedNet(t, n, delay)
	nw := tn.nw
	tn.react = func(m Message) {
		if m.Payload != "go" {
			return
		}
		switch m.To {
		case 3:
			nw.SendAll(3, "a1")
			nw.BurstSend(3, victim, "b-early")
		case 4:
			nw.SendAll(4, "a2")
			nw.BurstSendVia(4, 20, viaBuilder{}, "via", 1)
		case victim:
			if closing == "mid" {
				nw.CloseInbox(victim)
				tn.procs[victim].Finish()
			}
		case 6:
			nw.SendAll(6, "a3")
			nw.BurstSend(6, victim, "b-late")
			nw.BurstSendVia(6, 200, viaBuilder{}, "via", 2)
		}
	}
	tn.s.At(0, func() {
		if closing == "pre" {
			nw.CloseInbox(victim)
		}
		for _, p := range []model.ProcID{3, 4, victim, 6} {
			nw.Send(0, p, "go")
		}
	})
	out := tn.s.Run()
	if out.Stats.BurstJobs != 1 || out.Stats.PoolFlushes != 1 || out.Stats.ExpandJobs != 3 {
		t.Fatalf("closing=%s: the instant's sends did not share one window: %+v", closing, out.Stats)
	}
	return tn.trace, out
}

// TestMixedWindow pins what the per-entry closed-inbox snapshot exists for,
// on a window that mixes SendAll, BurstSend and BurstSendVia.
func TestMixedWindow(t *testing.T) {
	const victim = model.ProcID(170)
	mid, midOut := mixedWindow(t, "mid")

	// Bit-identical on a replay.
	trace, out := mixedWindow(t, "mid")
	if !reflect.DeepEqual(mid, trace) {
		t.Fatal("delivery trace diverged on replay")
	}
	if !reflect.DeepEqual(midOut, out) {
		t.Fatalf("outcome diverged on replay\n  ref: %+v\n  got: %+v", midOut, out)
	}

	// Stream stability: whether and when the victim closes shifts no other
	// recipient's delay draw — every delivery to anyone else is the same.
	never, neverOut := mixedWindow(t, "never")
	pre, preOut := mixedWindow(t, "pre")
	others := func(trace []arrival) (out []arrival) {
		for _, a := range trace {
			if a.To != victim {
				out = append(out, a)
			}
		}
		return out
	}
	if want := 3*(300-1) + 2 + 3; len(others(mid)) != want {
		t.Fatalf("%d deliveries to the other processes, want %d", len(others(mid)), want)
	}
	if !reflect.DeepEqual(others(mid), others(never)) || !reflect.DeepEqual(others(mid), others(pre)) {
		t.Fatal("closing the victim's inbox moved another recipient's delivery")
	}

	// An open victim gets all five sends addressed to it (after its "go").
	var got []string
	for _, a := range never {
		if a.To == victim {
			got = append(got, a.Payload.(string))
		}
	}
	slices.Sort(got)
	if want := []string{"a1", "a2", "a3", "b-early", "b-late", "go"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("open victim received %v, want %v", got, want)
	}

	// Closed mid-window, it gets the sends made before it closed and not
	// the ones made after. A closed inbox drops at arrival whatever was
	// scheduled, so the trace cannot show that; the scheduler's event count
	// does: each send that saw the victim open scheduled one arrival for it
	// (its own delivery event, or one more arrival instant of a fanout),
	// each send that saw it closed scheduled none.
	if d := midOut.Stats.EventsScheduled - preOut.Stats.EventsScheduled; d != 3 {
		t.Fatalf("closed mid-window, the victim was scheduled %d arrivals on top of none, want 3 (a1, a2, b-early)", d)
	}
	if d := neverOut.Stats.EventsScheduled - midOut.Stats.EventsScheduled; d != 2 {
		t.Fatalf("closing mid-window spared %d arrivals, want 2 (a3, b-late)", d)
	}
}

// TestPooledWindowsReuseShardPools drives full windows — every process of an
// n=256 network broadcasts and sends one built payload at the same instant,
// three rounds a full delay span apart — so the network's freelists are
// pushed between flushes (fired fanouts, recycled payloads) and popped by
// every shard's share of the next round's expansion. Each round must be one
// window, and the second and third rounds must have been served from the
// freelists: once the run is over every fanout and payload is back on one,
// and they hold one round's worth. The per-recipient sends ride message
// events, which pool nothing: every event the run scheduled has popped.
func TestPooledWindowsReuseShardPools(t *testing.T) {
	const n, rounds = 256, 3
	span := 200 * time.Microsecond
	tn := newTracedNet(t, n, WithUniformDelay(10*time.Microsecond, span))
	nw := tn.nw
	tn.react = func(m Message) {
		if p, ok := m.Payload.(*burstEchoPayload); ok {
			nw.RecyclePayload(p)
		}
	}
	for r := 0; r < rounds; r++ {
		r := r
		tn.s.At(vclock.Time(r)*vclock.Time(span+time.Microsecond), func() {
			for p := 0; p < n; p++ {
				nw.SendAll(model.ProcID(p), r)
				nw.BurstSendVia(model.ProcID(p), model.ProcID((p+1)%n), burstEchoBuilder{}, nil, uint64(r))
			}
		})
	}
	out := tn.s.Run()
	if want := rounds * (n*n + n); len(tn.trace) != want {
		t.Fatalf("%d deliveries, want %d", len(tn.trace), want)
	}
	if st := out.Stats; st.PoolFlushes != rounds || st.ExpandJobs != rounds*n || st.PooledPayloadBytes != rounds*n*4 {
		t.Fatalf("each round should be one window: %+v", st)
	}
	fans := n * len(nw.shards) // one fanout per broadcast and stripe
	if len(nw.freeFanouts) != fans || len(nw.freePayloads) != n {
		t.Fatalf("freelists hold %d fanouts, %d payloads — one round's worth is %d, %d",
			len(nw.freeFanouts), len(nw.freePayloads), fans, n)
	}
	if out.Steps != out.Stats.EventsScheduled {
		t.Fatalf("%d events popped of %d scheduled: a message event outlived the run", out.Steps, out.Stats.EventsScheduled)
	}
}
