package netsim

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"time"

	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/overlay"
	"allforone/internal/vclock"
)

// Zero-delay messages are delivered in deterministic send order, and the
// consumer waits for them between invocations.
func TestVirtualSendReceiveOrder(t *testing.T) {
	s := vclock.New()
	nw, err := New(2, WithScheduler(s))
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	spawn(s, nw, []model.ProcID{1}, nil, func() bool {
		for len(got) < 3 {
			m, ok, _ := nw.ReceiveNow(1)
			if !ok {
				return false
			}
			got = append(got, m.Payload.(int))
		}
		return true
	})
	spawn(s, nw, nil, func() {
		nw.Send(0, 1, 100)
		nw.Send(0, 1, 200)
		nw.Send(0, 1, 300)
	}, func() bool { return true })
	if out := s.Run(); out.Aborted() {
		t.Fatalf("outcome = %+v, want clean", out)
	}
	if len(got) != 3 || got[0] != 100 || got[1] != 200 || got[2] != 300 {
		t.Fatalf("got = %v, want [100 200 300]", got)
	}
}

// Delays advance the virtual clock — not the wall clock — and reorder
// deliveries by virtual timestamp.
func TestVirtualDelaysUseVirtualTime(t *testing.T) {
	s := vclock.New()
	// A per-message delay schedule: first send slow, second fast.
	delays := []time.Duration{5 * time.Millisecond, 1 * time.Millisecond}
	i := 0
	nw, err := New(2, WithScheduler(s), WithTimedDelayFn(func(_ time.Duration, _ *rand.Rand, _ Message) time.Duration {
		d := delays[i%len(delays)]
		i++
		return d
	}))
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	var at []vclock.Time
	spawn(s, nw, []model.ProcID{1}, nil, func() bool {
		for len(got) < 2 {
			m, ok, _ := nw.ReceiveNow(1)
			if !ok {
				return false
			}
			got = append(got, m.Payload.(int))
			at = append(at, s.Now())
		}
		return true
	})
	spawn(s, nw, nil, func() {
		nw.Send(0, 1, 1) // 5ms transit
		nw.Send(0, 1, 2) // 1ms transit — overtakes
	}, func() bool { return true })
	start := time.Now()
	if out := s.Run(); out.Aborted() {
		t.Fatalf("outcome = %+v, want clean", out)
	}
	if wall := time.Since(start); wall > time.Second {
		t.Errorf("virtual run took %v of wall clock", wall)
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("delivery order = %v, want [2 1] (fast message overtakes)", got)
	}
	if at[0] != vclock.Time(time.Millisecond) || at[1] != vclock.Time(5*time.Millisecond) {
		t.Fatalf("delivery instants = %v, want [1ms 5ms]", at)
	}
}

// CloseInbox drops subsequent sends and lets the consumer observe the
// close.
func TestVirtualCloseInbox(t *testing.T) {
	s := vclock.New()
	nw, err := New(2, WithScheduler(s))
	if err != nil {
		t.Fatal(err)
	}
	ok := true
	spawn(s, nw, []model.ProcID{1}, nil, func() bool {
		_, got, closed := nw.ReceiveNow(1)
		ok = got
		return got || closed
	})
	s.At(1, func() { nw.CloseInbox(1) })
	s.At(2, func() { nw.Send(0, 1, 99) })
	if out := s.Run(); out.Aborted() {
		t.Fatalf("outcome = %+v, want clean", out)
	}
	if ok {
		t.Fatal("ReceiveNow on closed inbox reported a message")
	}
	if queued(nw, 1) != 0 {
		t.Fatalf("Pending = %d, want 0", queued(nw, 1))
	}
}

// SendAll batches one broadcast into a single fanout: all recipients with
// equal delay receive at one instant, in recipient order, from one
// scheduler event; recipients with distinct delays receive at their own
// virtual instants. The pooled path must survive many rounds without
// corrupting payload routing.
func TestVirtualSendAllBatchedFanout(t *testing.T) {
	const n = 8
	s := vclock.New()
	// Per-link deterministic skew: delay(from,to) = to µs, so every
	// recipient has a distinct arrival instant except p0 (immediate).
	nw, err := New(n, WithScheduler(s), WithTimedDelayFn(
		func(_ time.Duration, _ *rand.Rand, m Message) time.Duration {
			return time.Duration(m.To) * time.Microsecond
		}))
	if err != nil {
		t.Fatal(err)
	}
	type rcv struct {
		payload int
		at      vclock.Time
	}
	got := make([][]rcv, n)
	for p := 0; p < n; p++ {
		p := p
		spawn(s, nw, []model.ProcID{model.ProcID(p)}, nil, func() bool {
			for {
				m, ok, closed := nw.ReceiveNow(model.ProcID(p))
				if !ok {
					return closed
				}
				got[p] = append(got[p], rcv{payload: m.Payload.(int), at: s.Now()})
			}
		})
	}
	const rounds = 5
	spawn(s, nw, nil, func() {
		for r := 0; r < rounds; r++ {
			nw.SendAll(0, r)
		}
	}, func() bool { return true })
	s.At(vclock.Time(time.Millisecond), func() {
		for p := 0; p < n; p++ {
			nw.CloseInbox(model.ProcID(p))
		}
	})
	if out := s.Run(); out.Quiesced || out.DeadlineExceeded || out.StepsExceeded {
		t.Fatalf("outcome = %+v, want clean", out)
	}
	for p := 0; p < n; p++ {
		if len(got[p]) != rounds {
			t.Fatalf("p%d received %d messages, want %d", p, len(got[p]), rounds)
		}
		for r, m := range got[p] {
			if m.payload != r {
				t.Fatalf("p%d round %d: payload %d (pool corruption?)", p, r, m.payload)
			}
			if want := vclock.Time(time.Duration(p) * time.Microsecond); m.at != want {
				t.Fatalf("p%d round %d delivered at %v, want %v", p, r, m.at, want)
			}
		}
	}
}

// The warmed-up batched delivery path is allocation-free per broadcast:
// fanout envelopes and arrival slices cycle through the network pool and
// inbox rings are reused, so steady-state rounds cost zero allocations in
// netsim (scheduler bucket growth amortizes to zero as well).
//
// The wide-gap case pins the 8-byte entry form too: at n=16 a 4-byte entry
// holds delay spreads below 2²⁸ ns ≈ 268 ms, so under a second-scale profile
// practically every broadcast takes the wide form, and that buffer has to
// stay on the pooled fanout like the narrow one does.
func TestVirtualSendAllSteadyStateAllocs(t *testing.T) {
	t.Run("immediate", func(t *testing.T) { testSendAllSteadyStateAllocs(t, nil) })
	t.Run("wide-gap", func(t *testing.T) {
		testSendAllSteadyStateAllocs(t, WithUniformDelay(50*time.Microsecond, 2*time.Second))
	})
}

// testSendAllSteadyStateAllocs runs warm broadcast rounds at n=16 under the
// given delay option (nil: immediate delivery) and fails if they allocate.
func testSendAllSteadyStateAllocs(t *testing.T, delay Option) {
	const n = 16
	s := vclock.New()
	opts := []Option{WithScheduler(s)}
	if delay != nil {
		opts = append(opts, delay)
	}
	nw, err := New(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for p := 1; p < n; p++ {
		p := p
		spawn(s, nw, []model.ProcID{model.ProcID(p)}, nil, func() bool {
			for {
				_, ok, closed := nw.ReceiveNow(model.ProcID(p))
				if !ok {
					return closed
				}
				delivered++
			}
		})
	}
	const rounds, warmup = 400, 3000
	var payload any = "round" // boxed once: the path itself must not box
	var allocs uint64
	var m0, m1 runtime.MemStats
	// Each round broadcasts and then consumes the loopback delivery; under a
	// delay profile the other arrivals of the last few broadcasts are still
	// in flight then, so the pool settles at that many fanouts. The warm-up
	// rounds size the pools, rings and wheel — thousands of them, because
	// the wide-gap profile spreads a round's arrivals far past the wheel's
	// horizon: the overflow heap and each of the 256 buckets they cascade
	// into have to have seen their deepest cohort.
	r := 0
	spawn(s, nw, []model.ProcID{0}, func() { nw.SendAll(0, payload) }, func() bool {
		if _, ok, _ := nw.ReceiveNow(0); !ok {
			return false
		}
		switch r++; r {
		case warmup:
			runtime.ReadMemStats(&m0)
		case warmup + rounds:
			runtime.ReadMemStats(&m1)
			allocs = m1.Mallocs - m0.Mallocs
			for p := 0; p < n; p++ {
				nw.CloseInbox(model.ProcID(p))
			}
			return true
		}
		nw.SendAll(0, payload)
		return false
	})
	if out := s.Run(); out.Quiesced {
		t.Fatalf("outcome = %+v, want clean", out)
	}
	if delay == nil {
		if want := (rounds + warmup) * (n - 1); delivered != want {
			t.Fatalf("consumers saw %d deliveries, want %d", delivered, want)
		}
	}
	// The delay profile, and nothing else, decides the entry form.
	if wide := slices.ContainsFunc(nw.freeFanouts, func(f *fanout) bool { return cap(f.wide) > 0 }); wide != (delay != nil) {
		t.Fatalf("pooled fanouts with 8-byte entries: %v, want %v", wide, delay != nil)
	}
	// 0.05: a handful of stray runtime allocations over the 400 rounds.
	if perRound := float64(allocs) / rounds; perRound > 0.05 {
		t.Fatalf("steady-state SendAll allocates %.2f times per round, want 0", perRound)
	}
}

// Per-recipient Send on an UNSHARDED scheduler — the sparse-overlay
// protocols' transmission primitive below the sharding floor — rides the
// network-global delivery pool. Warmed up, that path must be
// allocation-free per round: an overlay protocol at n·d sends per round
// would otherwise pay n·d allocations where SendAll pays zero. n=256 with
// a de Bruijn successor list reproduces the overlay fanout shape exactly.
// (On a sharded scheduler the same calls route through the sharded burst
// path — TestVirtualBurstSendSteadyStateAllocs pins that side.)
func TestVirtualOverlaySendSteadyStateAllocs(t *testing.T) {
	const n = 256
	g, err := overlay.Spec{Kind: overlay.KindDeBruijn, Degree: 4}.Build(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	succ := g.Succ(0)
	s := vclock.New()
	nw, err := New(n, WithScheduler(s), WithSeed(11), WithUniformDelay(0, 50*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	// Each successor echoes every delivery straight back — echoes are
	// per-recipient Sends too, and consuming them below guarantees every
	// delivery event of a round is back in the pool before the next round.
	for _, p := range succ {
		p := p
		spawn(s, nw, []model.ProcID{p}, nil, func() bool {
			for {
				m, ok, closed := nw.ReceiveNow(p)
				if !ok {
					return closed
				}
				nw.Send(p, 0, m.Payload)
			}
		})
	}
	const rounds, warmup = 400, 20 // warm the delivery pool and inbox rings
	// Zero-size payload, exactly what the gossip protocol sends: interface
	// conversion is allocation-free, so any allocation measured below is
	// the transport's own.
	type rumor struct{}
	payload := rumor{}
	send := func() {
		for _, p := range succ {
			nw.Send(0, p, payload)
		}
	}
	allocs := echoRounds(s, nw, succ, warmup, rounds, send)
	if out := s.Run(); out.DeadlineExceeded || out.StepsExceeded {
		t.Fatalf("outcome = %+v, want clean", out)
	}
	// Delivery events are pooled, so the only steady-state cost left is
	// timer-wheel bucket growth under the scattered arrival instants —
	// measured ≈0.2 per send. Pin well under 1: a regression to one
	// allocation per send is what would hurt at n·d sends per round.
	if perSend := float64(*allocs) / (rounds * 2 * float64(len(succ))); perSend > 0.5 {
		t.Fatalf("steady-state per-recipient Send allocates %.2f times per send (%d sends/round), want ≤ 0.5",
			perSend, 2*len(succ))
	}
}

// echoRounds spawns p0 as the sender of warmup+rounds echo rounds: each
// round sends to succ, then waits for one echo per successor. It returns a
// pointer to the allocation count of the last rounds, set once they ran;
// the sender then closes every inbox involved.
func echoRounds(s *vclock.Scheduler, nw *Network, succ []model.ProcID, warmup, rounds int, send func()) *uint64 {
	var allocs uint64
	var m0, m1 runtime.MemStats
	r, echoes := 0, 0
	spawn(s, nw, []model.ProcID{0}, send, func() bool {
		for ; echoes < len(succ); echoes++ {
			if _, ok, _ := nw.ReceiveNow(0); !ok {
				return false
			}
		}
		echoes = 0
		switch r++; r {
		case warmup:
			runtime.ReadMemStats(&m0)
		case warmup + rounds:
			runtime.ReadMemStats(&m1)
			allocs = m1.Mallocs - m0.Mallocs
			nw.CloseInbox(0)
			for _, p := range succ {
				nw.CloseInbox(p)
			}
			return true
		}
		send()
		return false
	})
	return &allocs
}

// burstEchoPayload is a non-zero pooled payload for the burst allocs test:
// boxing it per send would cost one allocation each — exactly what the
// per-shard payload pools exist to remove.
type burstEchoPayload struct {
	Seq uint32
}

// burstEchoBuilder builds burstEchoPayloads inside the expansion job from
// the shard's pool, mirroring allconcur's envelope builder.
type burstEchoBuilder struct{}

func (burstEchoBuilder) BuildPayload(nw *Network, shard int, ctx any, arg uint64) (any, int) {
	p, _ := nw.GrabPayload(shard).(*burstEchoPayload)
	if p == nil {
		p = new(burstEchoPayload)
	}
	p.Seq = uint32(arg)
	return p, 4
}

// TestVirtualBurstSendSteadyStateAllocs is the sharded counterpart of the
// overlay Send test above, with NON-ZERO payloads: on a sharded scheduler
// BurstSendVia routes the fanout through the sharded burst path, payload
// construction runs at the flush through the per-shard payload pools, and the
// steady state must stay allocation-free per send — pooled deliveries,
// pooled payloads, recycled entry buffers. It also pins the stats wiring:
// the run must report burst jobs and pooled payload bytes.
func TestVirtualBurstSendSteadyStateAllocs(t *testing.T) {
	const n = 256
	g, err := overlay.Spec{Kind: overlay.KindDeBruijn, Degree: 4}.Build(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	succ := g.Succ(0)
	s := vclock.New(vclock.WithShards(vclock.ShardsFor(n)))
	nw, err := New(n, WithScheduler(s), WithSeed(11), WithUniformDelay(0, 50*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	// Each successor recycles the pooled payload after reading it — the
	// recipient-side half of the pooling contract — then echoes a zero-size
	// ack through the same burst path.
	type ack struct{}
	for _, p := range succ {
		p := p
		spawn(s, nw, []model.ProcID{p}, nil, func() bool {
			for {
				m, ok, closed := nw.ReceiveNow(p)
				if !ok {
					return closed
				}
				env := m.Payload.(*burstEchoPayload)
				nw.RecyclePayload(nw.ShardOf(p), env)
				nw.BurstSend(p, 0, ack{})
			}
		})
	}
	const rounds, warmup = 400, 20 // warm the delivery, payload, and entry pools
	var seq uint64
	send := func() {
		for _, p := range succ {
			nw.BurstSendVia(0, p, burstEchoBuilder{}, nil, seq)
			seq++
		}
	}
	allocs := echoRounds(s, nw, succ, warmup, rounds, send)
	if out := s.Run(); out.DeadlineExceeded || out.StepsExceeded {
		t.Fatalf("outcome = %+v, want clean", out)
	}
	stats := s.Stats()
	if stats.BurstJobs == 0 {
		t.Fatalf("burst path not engaged on a sharded scheduler: %+v", stats)
	}
	if stats.PooledPayloadBytes == 0 {
		t.Fatalf("flush-time payload construction reported zero bytes: %+v", stats)
	}
	if perSend := float64(*allocs) / (rounds * 2 * float64(len(succ))); perSend > 0.5 {
		t.Fatalf("steady-state burst Send allocates %.2f times per send (%d sends/round), want ≤ 0.5",
			perSend, 2*len(succ))
	}
}

// A mid-broadcast crash subset still delivers to exactly the listed
// recipients under the batched path, and out-of-range recipients are
// skipped (and not counted).
func TestVirtualBroadcastSubsetBatched(t *testing.T) {
	s := vclock.New()
	var ctr metrics.Counters
	nw, err := New(4, WithScheduler(s), WithCounters(&ctr))
	if err != nil {
		t.Fatal(err)
	}
	gotTo := map[model.ProcID]bool{}
	for p := 0; p < 4; p++ {
		p := p
		spawn(s, nw, []model.ProcID{model.ProcID(p)}, nil, func() bool {
			m, ok, closed := nw.ReceiveNow(model.ProcID(p))
			if ok {
				gotTo[m.To] = true
			}
			return ok || closed
		})
	}
	spawn(s, nw, nil, func() {
		nw.BroadcastSubset(0, "crash-cut", []model.ProcID{1, 3, 99, -1})
	}, func() bool { return true })
	out := s.Run()
	if !out.Quiesced {
		// p0 and p2 never receive: the run must end by quiescence.
		t.Fatalf("outcome = %+v, want quiesced", out)
	}
	if !gotTo[1] || !gotTo[3] || gotTo[0] || gotTo[2] {
		t.Fatalf("delivered set = %v, want exactly {1, 3}", gotTo)
	}
	snap := ctr.Read()
	if snap.MsgsSent != 2 {
		t.Fatalf("MsgsSent = %d, want 2 (out-of-range recipients uncounted)", snap.MsgsSent)
	}
}
