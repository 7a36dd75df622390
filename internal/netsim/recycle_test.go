package netsim

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

	"allforone/internal/model"
	"allforone/internal/vclock"
)

// boxed is a payload that lives on the heap, so a reference a recycled
// network kept to it would be one to a finished run's object.
// The pointer field keeps it out of the runtime's tiny allocator, which
// packs small pointer-free objects — this one is 8 bytes on 32-bit
// platforms — into shared 16-byte blocks, where a weak pointer to a dead one
// stays valid while a neighbour lives (weak.Pointer's doc): the test would
// then see a retention that is not there.
type boxed struct {
	from, seq int
	_         *boxed
}

// recycleRun is one cut-short run of n processes on a network built on s:
// every process broadcasts at 0, p0 sends each peer a point-to-point message
// and p1 a broadcast cut to {p0, p2}; p1's inbox closes at 30µs; the step
// budget stops the run with arrivals still in flight and messages queued.
// Each process drains its inbox once per invocation until the abort. It
// returns the network, shut down, every consumed arrival in order, and a
// weak pointer to each payload the run sent, indexed by recipient for p0's
// point-to-point messages (entry 0 is p0's broadcast).
func recycleRun(t *testing.T, s *vclock.Scheduler, n int) (*Network, []string, []weak.Pointer[boxed]) {
	t.Helper()
	nw, err := New(n, WithScheduler(s), WithSeed(uint64(n)), WithUniformDelay(0, 200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	sent := make([]weak.Pointer[boxed], n)
	var others []weak.Pointer[boxed]
	send := func(b *boxed) *boxed {
		others = append(others, weak.Make(b))
		return b
	}
	for p := 0; p < n; p++ {
		id := model.ProcID(p)
		spawn(s, nw, []model.ProcID{id}, func() {
			b := &boxed{from: p}
			if p == 0 {
				sent[0] = weak.Make(b)
			} else {
				send(b)
			}
			nw.SendAll(id, b)
			if p == 0 {
				for q := 1; q < n; q++ {
					b := &boxed{from: 0, seq: q}
					sent[q] = weak.Make(b)
					nw.Send(0, model.ProcID(q), b)
				}
				nw.BroadcastSubset(0, send(&boxed{from: 0, seq: -1}), []model.ProcID{0, 2})
			}
		}, func() bool {
			// Drain only every other wake, so messages stay queued at the cut.
			if s.Now()/(20*1000)%2 == 1 {
				return false
			}
			for {
				m, ok, _ := nw.ReceiveNow(id)
				if !ok {
					return false
				}
				b := m.Payload.(*boxed)
				log = append(log, fmt.Sprintf("%d<-%d.%d@%d", id, b.from, b.seq, s.Now()))
			}
		})
	}
	s.At(30_000, func() { nw.CloseInbox(1) })
	if out := s.Run(); !out.StepsExceeded {
		t.Fatalf("n=%d: run was not cut: %+v", n, out)
	}
	nw.Shutdown()
	return nw, log, append(sent, others...)
}

// TestRecycledNetworkCarriesNothing: the network a recycled scheduler hands to
// the next run's New holds no payload — in no inbox or fanout, and none in
// its payload pool — and every fanout it ever made is back on its freelist,
// the ones in flight at the cut too. No payload of the run stays reachable
// at all: not the ones queued in inboxes, and not the ones whose message
// events were still in flight at the cut. A second network on the scheduler
// in the same run is refused. And the reused network runs exactly as a new
// one: at n = 7 → 3 → 9, its arrivals match a network built afresh. The same
// holds for a sharded network (checkShardedRecycle) cut at 90µs — its first
// window sealed, the window's broadcast entries still held, its fanouts in
// flight — and at 120µs, in the middle of its second window, with a
// broadcast entry and a burst entry no flush expanded.
func TestRecycledNetworkCarriesNothing(t *testing.T) {
	// The step budget that cuts an n-process run with arrivals in flight.
	steps := func(n int) vclock.Option { return vclock.WithMaxSteps(int64(n * n / 2)) }
	reused := 0
	for attempt := 0; reused < 3; attempt++ {
		if attempt == 100 {
			t.Fatalf("the scheduler pool handed a recycled scheduler back %d times in 100 attempts", reused)
		}
		s := vclock.New(steps(7))
		nw, _, payloads := recycleRun(t, s, 7)
		pooled := &boxed{}
		nw.freePayloads = append(nw.freePayloads, pooled)
		payloads = append(payloads, weak.Make(pooled))
		if len(nw.freeFanouts) == len(nw.fanouts) {
			t.Fatalf("no fanout in flight at the cut (%d of %d free)", len(nw.freeFanouts), len(nw.fanouts))
		}
		// A point-to-point message whose payload is alive while its
		// recipient's inbox is empty is in flight: only its event holds it.
		runtime.GC()
		inFlight := 0
		for q := 1; q < nw.n; q++ {
			if payloads[q].Value() != nil && queued(nw, model.ProcID(q)) == 0 {
				inFlight++
			}
		}
		if inFlight == 0 {
			t.Fatal("no point-to-point message event in flight at the cut")
		}
		queuedAny := false
		for p := range nw.boxes {
			queuedAny = queuedAny || queued(nw, model.ProcID(p)) > 0
		}
		if !queuedAny {
			t.Fatal("no message queued at the cut; the test would check no inbox")
		}
		fanouts := slices.Clone(nw.fanouts)
		s.Recycle()

		for _, n := range []int{3, 9, 7} {
			s2 := vclock.New(steps(n))
			if s2 != s {
				break // the pool dropped it, or another test's scheduler came out
			}
			got, err := New(n, WithScheduler(s2), WithSeed(uint64(n)), WithUniformDelay(0, 200*time.Microsecond))
			if err != nil {
				t.Fatal(err)
			}
			if got != nw {
				t.Fatal("New on a recycled scheduler built a network instead of reusing the kept one")
			}
			if n == 3 {
				reused++
				checkRecycled(t, got, fanouts)
				runtime.GC()
				for i, p := range payloads {
					if p.Value() != nil {
						t.Fatalf("payload %d of the finished run is still reachable", i)
					}
				}
			}
			if other, err := New(2, WithScheduler(s2)); err == nil || other != nil {
				t.Fatalf("a second New in one run returned %p, %v; want an error", other, err)
			}
			// The reused network replays a run on fresh storage exactly. Its
			// scheduler then goes back to the pool for the next size.
			got.Shutdown()
			s2.Recycle()
			s3 := vclock.New(steps(n))
			nwAgain, log, _ := recycleRun(t, s3, n)
			// s3 took the one scheduler in the pool: this one is new.
			_, want, _ := recycleRun(t, vclock.New(steps(n)), n)
			if !reflect.DeepEqual(log, want) {
				t.Fatalf("n=%d: arrivals on a recycled network (%v)\n%v\nwant, on a new one,\n%v", n, nwAgain == got, log, want)
			}
			s3.Recycle()
			s, nw = s3, nwAgain
		}
	}
	checkShardedRecycle(t, 90_000, false)
	checkShardedRecycle(t, 120_000, true)
}

// shardedCutRun is one run of an n-process network on s, which is sharded
// and cut at a deadline: at 0 every process broadcasts and bursts a message
// to its successor, which the first window's flush expands; at 100µs p0
// broadcasts and bursts once more, which opens a second window that stays
// open until an event past 150µs is due. The band, 50µs to 200µs, keeps the
// first window's fanouts in flight past 150µs. One process, bound to every
// inbox, drains them at every other 20µs of virtual time, so messages stay
// queued at the cut. It returns the network, shut down, and a weak pointer to
// every payload the run sent.
func shardedCutRun(t *testing.T, s *vclock.Scheduler, n int) (*Network, []weak.Pointer[boxed]) {
	t.Helper()
	nw, err := New(n, WithScheduler(s), WithSeed(uint64(n)), WithUniformDelay(50*time.Microsecond, 200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	var sent []weak.Pointer[boxed]
	send := func(from, seq int) *boxed {
		b := &boxed{from: from, seq: seq}
		sent = append(sent, weak.Make(b))
		return b
	}
	all := slices.Clone(nw.everyone)
	spawn(s, nw, all, func() {
		for p := range all {
			nw.SendAll(model.ProcID(p), send(p, 0))
			nw.BurstSend(model.ProcID(p), model.ProcID((p+1)%n), send(p, 1))
		}
	}, func() bool {
		for _, p := range all {
			for s.Now()/(20*1000)%2 == 0 {
				if _, ok, _ := nw.ReceiveNow(p); !ok {
					break
				}
			}
		}
		return false
	})
	s.At(100_000, func() {
		nw.SendAll(0, send(0, 2))
		nw.BurstSend(0, 5, send(0, 3))
	})
	if out := s.Run(); !out.DeadlineExceeded {
		t.Fatalf("run was not cut: %+v", out)
	}
	nw.Shutdown()
	return nw, sent
}

// checkShardedRecycle is TestRecycledNetworkCarriesNothing's sharded half,
// for one shardedCutRun at n = 256 cut at cut, where the window must be open
// (live) or sealed. The network the next New takes back holds no payload of
// the run in its window, a shard buffer, a fanout or an inbox, and no
// payload of the run is reachable at all; it keeps its shards and their
// buffers, and every fanout it made is back on its freelist.
func checkShardedRecycle(t *testing.T, cut vclock.Time, live bool) {
	t.Helper()
	const n = 256
	for attempt := 0; ; attempt++ {
		if attempt == 100 {
			t.Fatalf("cut %d: the scheduler pool never handed the recycled scheduler back", cut)
		}
		s := vclock.New(vclock.WithShards(vclock.ShardsFor(n)), vclock.WithDeadline(cut))
		nw, payloads := shardedCutRun(t, s, n)
		w := &nw.win
		bursts := slices.ContainsFunc(nw.shards, func(sh sendShard) bool { return len(sh.burst) > 0 })
		if w.live != live || len(w.fans) == 0 || bursts != live {
			t.Fatalf("cut %d: window open %v with %d broadcast entries, burst entries queued %v; want open %v",
				cut, w.live, len(w.fans), bursts, live)
		}
		if len(nw.freeFanouts) == len(nw.fanouts) {
			t.Fatalf("cut %d: no fanout in flight (%d of %d free)", cut, len(nw.freeFanouts), len(nw.fanouts))
		}
		fanouts, shards := slices.Clone(nw.fanouts), &nw.shards[0]
		s.Recycle()

		s2 := vclock.New(vclock.WithShards(vclock.ShardsFor(n)))
		if s2 != s {
			continue // the pool dropped it, or another test's scheduler came out
		}
		got, err := New(n, WithScheduler(s2), WithSeed(uint64(n)), WithUniformDelay(50*time.Microsecond, 200*time.Microsecond))
		if err != nil {
			t.Fatal(err)
		}
		if got != nw || &got.shards[0] != shards {
			t.Fatalf("cut %d: New on a recycled scheduler did not reuse the kept network and its shards", cut)
		}
		checkRecycled(t, got, fanouts)
		if got.win.live || len(got.win.fans) != 0 || slices.ContainsFunc(got.win.fans[:cap(got.win.fans)], func(e fanEntry) bool { return e != (fanEntry{}) }) {
			t.Fatalf("cut %d: the window keeps %d entries (open %v)", cut, len(got.win.fans), got.win.live)
		}
		for i, sh := range got.shards[:cap(got.shards)] {
			if slices.ContainsFunc(sh.burst[:cap(sh.burst)], func(e burstEntry) bool { return e != (burstEntry{}) }) {
				t.Fatalf("cut %d: shard %d keeps a burst entry", cut, i)
			}
		}
		runtime.GC()
		for i, p := range payloads {
			if p.Value() != nil {
				t.Fatalf("cut %d: payload %d of the finished run is still reachable", cut, i)
			}
		}
		got.Shutdown()
		s2.Recycle()
		return
	}
}

// checkRecycled fails unless nw, just taken back by New, holds no payload and
// has every fanout it made on its freelist.
func checkRecycled(t *testing.T, nw *Network, fanouts []*fanout) {
	t.Helper()
	if !sameSet(nw.freeFanouts, fanouts) || !sameSet(nw.fanouts, fanouts) {
		t.Fatalf("%d fanouts free, %d recorded, want the %d made", len(nw.freeFanouts), len(nw.fanouts), len(fanouts))
	}
	for i, f := range fanouts {
		if f.payload != nil || f.to != nil || len(f.keys) != 0 || len(f.wide) != 0 || f.nw != nw {
			t.Fatalf("fanout %d keeps %+v", i, *f)
		}
	}
	for i, b := range nw.boxes[:cap(nw.boxes)] {
		if b != (binding{}) {
			t.Fatalf("binding %d keeps %+v", i, b)
		}
	}
	for i, b := range nw.own[:cap(nw.own)] {
		if b.Len() != 0 || b.first != nil || slices.ContainsFunc(b.ring, func(e entry) bool { return e != (entry{}) }) {
			t.Fatalf("inbox %d keeps %d messages: %+v", i, b.Len(), b)
		}
	}
	if len(nw.freePayloads) != 0 || slices.ContainsFunc(nw.freePayloads[:cap(nw.freePayloads)], func(p any) bool { return p != nil }) {
		t.Fatal("the payload pool kept an object of the finished run")
	}
	reopened := nw.closures == 0 && !slices.ContainsFunc(nw.closedAt, func(e uint32) bool { return e != epochOpen })
	if nw.closed || len(nw.boxes) != nw.n || len(nw.everyone) != nw.n || len(nw.closedAt) != nw.n || !reopened {
		t.Fatalf("network not sized for n=%d: closed %v, %d boxes, %d ids, closure epochs %v (%d closures)", nw.n, nw.closed, len(nw.boxes), len(nw.everyone), nw.closedAt, nw.closures)
	}
}

// sameSet reports whether a and b hold the same pointers, each once.
func sameSet[T any](a, b []*T) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[*T]int, len(a))
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		if seen[x] != 1 {
			return false
		}
		seen[x]++
	}
	return true
}

// TestFanoutPoolFollowsTheRun: a network a dense run grew carries into a
// smaller, unsharded run no more than that run can use. After a sharded
// n = 1024 run cut with thousands of fanouts in flight, the n = 7 run that
// takes the network finds at most keptFanouts(7) fanouts, every one free and
// on a freelist of that size, and no entry storage wider than 7; and the
// trimmed network runs exactly as a new one.
func TestFanoutPoolFollowsTheRun(t *testing.T) {
	const dense, small = 1024, 7
	for attempt := 0; ; attempt++ {
		if attempt == 100 {
			t.Fatal("the scheduler pool never handed the dense run's scheduler back")
		}
		s := vclock.New(vclock.WithShards(vclock.ShardsFor(dense)), vclock.WithDeadline(100_000))
		nw, err := New(dense, WithScheduler(s), WithSeed(1), WithUniformDelay(50*time.Microsecond, 2*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		all := slices.Clone(nw.everyone)
		spawn(s, nw, all, func() {
			for _, p := range all {
				nw.SendAll(p, &boxed{from: int(p)})
			}
		}, func() bool { return false })
		s.Run()
		nw.Shutdown()
		if grown := len(nw.fanouts); grown <= keptFanouts(small) {
			t.Fatalf("the dense run made %d fanouts; the trim would be checked on nothing", grown)
		}
		s.Recycle()

		s2 := vclock.New(vclock.WithMaxSteps(small * small / 2))
		if s2 != s {
			continue // the pool dropped it, or another test's scheduler came out
		}
		got, err := New(small, WithScheduler(s2), WithSeed(small), WithUniformDelay(0, 200*time.Microsecond))
		if err != nil {
			t.Fatal(err)
		}
		if got != nw {
			t.Fatal("New on a recycled scheduler built a network instead of reusing the kept one")
		}
		k := keptFanouts(small)
		if len(got.fanouts) > k || cap(got.fanouts) > k || cap(got.freeFanouts) > k {
			t.Fatalf("an n=%d run keeps %d fanouts (cap %d) on a freelist of cap %d, want at most %d",
				small, len(got.fanouts), cap(got.fanouts), cap(got.freeFanouts), k)
		}
		checkRecycled(t, got, got.fanouts)
		for i, f := range got.fanouts {
			if cap(f.keys) > small || cap(f.wide) > small {
				t.Fatalf("fanout %d keeps entry storage of %d narrow and %d wide entries for an n=%d run", i, cap(f.keys), cap(f.wide), small)
			}
		}
		got.Shutdown()
		s2.Recycle()
		// The trimmed network runs a cut run exactly as a new network does.
		s3 := vclock.New(vclock.WithMaxSteps(small * small / 2))
		_, log, _ := recycleRun(t, s3, small)
		_, want, _ := recycleRun(t, vclock.New(vclock.WithMaxSteps(small*small/2)), small)
		if !reflect.DeepEqual(log, want) {
			t.Fatalf("arrivals on the trimmed network\n%v\nwant, on a new one,\n%v", log, want)
		}
		return
	}
}
