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
	return newTracedNetOn(t, vclock.New(vclock.WithShards(vclock.ShardsFor(n))), n, opts...)
}

// newTracedNetOn is newTracedNet on the scheduler s.
func newTracedNetOn(t *testing.T, s *vclock.Scheduler, n int, opts ...Option) *tracedNet {
	t.Helper()
	tn := &tracedNet{s: s}
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
				if sharded := len(tn.nw.shards) > 0; sharded != (n == 300) {
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

// TestMixedWindow pins what the per-entry closure epoch exists for, on a
// window that mixes SendAll, BurstSend and BurstSendVia.
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

// tailRun drives three overlapping rounds of broadcasts through an n-process
// network under the delay band [0, span] — the band itself, or, when timed,
// the band compiled to a TimedDelayFn, which loads every arrival of a
// broadcast at the expansion — and returns the delivery trace and the
// scheduler's Outcome; maxSteps > 0 cuts the run there. Round r starts at
// instant start(r) and is one window. Around its sends, inboxes close:
// before the round's sends ("pre"), between two of its sends and after them
// (between send and flush), and 1 µs later (between flush and the tail
// load). In round 1 every process of the last stripe but q = n-2 is closed
// before the sends, so that stripe's fanouts hold one arrival each, most of
// them with an empty head. Payloads are r*n + sender.
func tailRun(t *testing.T, n int, span time.Duration, timed bool, maxSteps int64) ([]arrival, vclock.Outcome) {
	t.Helper()
	// A [0, 0] band is no delay policy at all: the one-cohort cell is
	// [1 ns, 1 ns], whose window hint no event of the schedule falls into.
	var min time.Duration
	if span == 0 {
		min = 1
	}
	opt := WithUniformDelay(min, min+span)
	if timed {
		opt = WithTimedDelayFn(func(_ time.Duration, rng *rand.Rand, _ Message) time.Duration {
			return min + time.Duration(rng.Int64N(int64(span)+1))
		})
	}
	s := vclock.New(vclock.WithShards(vclock.ShardsFor(n)), vclock.WithMaxSteps(maxSteps))
	tn := newTracedNetOn(t, s, n, opt)
	nw := tn.nw
	if len(nw.shards) == 0 {
		t.Fatalf("n=%d: the sharded path is not engaged", n)
	}
	closeAll := func(ps ...int) {
		for _, p := range ps {
			nw.CloseInbox(model.ProcID(p))
		}
	}
	for r := 0; r < 3; r++ {
		r := r
		at := tailStart(r, span)
		senders := []int{8 * r, 8*r + 1, 8*r + 2, n - 1 - r}
		tn.s.At(at, func() {
			closeAll(8*r+3, 8*r+5)
			if r == 1 {
				last := nw.shards[len(nw.shards)-1]
				for p := last.lo; p < last.hi; p++ {
					if p != n-2 && p != senders[3] {
						closeAll(p)
					}
				}
			}
			for i, from := range senders {
				if i == 2 {
					closeAll(8*r + 4) // closed for the last two sends, open for the first two
				}
				nw.SendAll(model.ProcID(from), r*n+from)
			}
			closeAll(8*r+6, senders[0])
		})
		tn.s.At(at+vclock.Time(time.Microsecond), func() { closeAll(8*r + 7) })
	}
	out := tn.s.Run()
	return tn.trace, out
}

// tailStart is when round r of tailRun starts: rounds overlap by half a span.
func tailStart(r int, span time.Duration) vclock.Time {
	return vclock.Time(r) * vclock.Time(span/2+10*time.Microsecond)
}

// TestFanoutTailMatchesFullLoad is the differential of the head/tail load:
// a sharded broadcast under the uniform band stores only its head and
// redraws its tail from the shard stream when the head drains; under the
// same band compiled to a timed function it loads every arrival at the
// expansion. Both draw the same delays from the same streams and, with the
// band's minimum at 0, flush at the same points, so the delivery trace —
// instant, order, sender, recipient — and every scheduler count must be the
// same, for inboxes closed before a send, between send and flush, and
// between flush and tail load, over stripes of 128 and 256, spans of one
// cohort (0), a narrow (2 ms) and a wide-entry tail (100 ms), runs that drain
// every tail and runs cut half-way. The epoch cell pins the compare itself,
// which both sides share: the last inbox closed before a send gets no
// arrival, the first closed after it does.
func TestFanoutTailMatchesFullLoad(t *testing.T) {
	for _, n := range []int{256, 1024, 4096} {
		for _, span := range []time.Duration{0, 2 * time.Millisecond, 100 * time.Millisecond} {
			t.Run(fmt.Sprintf("n=%d/span=%v", n, span), func(t *testing.T) {
				band, bandOut := tailRun(t, n, span, false, 0)
				full, fullOut := tailRun(t, n, span, true, 0)
				if !reflect.DeepEqual(band, full) {
					t.Fatalf("delivery traces differ: %d arrivals under the band, %d under the full load", len(band), len(full))
				}
				if bandOut != fullOut {
					t.Fatalf("scheduler counts differ\n  band: %+v\n  full: %+v", bandOut, fullOut)
				}
				if bandOut.Steps != bandOut.Stats.EventsScheduled {
					t.Fatalf("%d events popped of %d scheduled: a tail was left in flight", bandOut.Steps, bandOut.Stats.EventsScheduled)
				}
				if span > 0 {
					// Tails were loaded, and q's stripe had an empty head.
					cut := vclock.Time(span>>fanHeadShift) + 1
					tails, emptyHead := 0, false
					for _, a := range band {
						d := a.At - tailStart(a.Payload.(int)/n, span)
						if d >= cut {
							tails++
							emptyHead = emptyHead || a.To == model.ProcID(n-2) && a.Payload.(int)/n == 1
						}
					}
					if tails == 0 || !emptyHead {
						t.Fatalf("%d tail arrivals, empty head reached %v: the cell does not cover the tail load", tails, emptyHead)
					}
				}
				cut := bandOut.Steps / 2
				band, bandOut = tailRun(t, n, span, false, cut)
				full, fullOut = tailRun(t, n, span, true, cut)
				if !bandOut.StepsExceeded || !reflect.DeepEqual(band, full) || bandOut != fullOut {
					t.Fatalf("cut at %d steps: traces equal %v, outcomes\n  band: %+v\n  full: %+v", cut, reflect.DeepEqual(band, full), bandOut, fullOut)
				}
			})
		}
	}
	t.Run("epoch", func(t *testing.T) {
		// n = 256 is two stripes. p1 … p255 close before p0's broadcast, p0
		// right after it: only stripe 0 has a recipient open at the send.
		const n = 256
		for _, timed := range []bool{false, true} {
			opt := WithUniformDelay(0, 2*time.Millisecond)
			if timed {
				opt = WithTimedDelayFn(func(_ time.Duration, rng *rand.Rand, _ Message) time.Duration {
					return time.Duration(rng.Int64N(int64(2*time.Millisecond) + 1))
				})
			}
			tn := newTracedNet(t, n, opt)
			tn.s.At(0, func() {
				for p := 1; p < n; p++ {
					tn.nw.CloseInbox(model.ProcID(p))
				}
				tn.nw.SendAll(0, "m")
				tn.nw.CloseInbox(0)
			})
			if out := tn.s.Run(); out.Stats.ShardEvents != 1 {
				t.Fatalf("timed=%v: %d fanouts inserted, want 1 (stripe 0's, for p0)", timed, out.Stats.ShardEvents)
			}
		}
	})
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
