package netsim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"allforone/internal/model"
	"allforone/internal/vclock"
)

// boxed is a payload that lives on the heap, so a reference a recycled
// network kept to it would be one to a finished run's object.
type boxed struct{ from, seq int }

// recycleRun is one cut-short run of n processes on a network built on s:
// every process broadcasts at 0, p0 sends each peer a point-to-point message
// and p1 a broadcast cut to {p0, p2}; p1's inbox closes at 30µs; the step
// budget stops the run with arrivals still in flight and messages queued.
// Each process drains its inbox once per invocation until the abort. It
// returns the network, shut down, and every consumed arrival in order.
func recycleRun(t *testing.T, s *vclock.Scheduler, n int) (*Network, []string) {
	t.Helper()
	nw, err := New(n, WithScheduler(s), WithSeed(uint64(n)), WithUniformDelay(0, 200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	for p := 0; p < n; p++ {
		id := model.ProcID(p)
		spawn(s, nw, []model.ProcID{id}, func() {
			nw.SendAll(id, &boxed{from: p})
			if p == 0 {
				for q := 1; q < n; q++ {
					nw.Send(0, model.ProcID(q), &boxed{from: 0, seq: q})
				}
				nw.BroadcastSubset(0, &boxed{from: 0, seq: -1}, []model.ProcID{0, 2})
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
	return nw, log
}

// TestRecycledNetworkCarriesNothing: the network a recycled scheduler hands to
// the next run's New holds no payload — in no inbox, fanout or delivery, and
// none in its payload pool — and every fanout and delivery it ever made is
// back on its freelist, the ones in flight at the cut too. A second network
// built on the scheduler in the same run is a new one. And the reused network
// runs exactly as a new one: at n = 7 → 3 → 9, its arrivals match a network
// built afresh.
func TestRecycledNetworkCarriesNothing(t *testing.T) {
	// The step budget that cuts an n-process run with arrivals in flight.
	steps := func(n int) vclock.Option { return vclock.WithMaxSteps(int64(n * n / 2)) }
	reused := 0
	for attempt := 0; reused < 3; attempt++ {
		if attempt == 100 {
			t.Fatalf("the scheduler pool handed a recycled scheduler back %d times in 100 attempts", reused)
		}
		s := vclock.New(steps(7))
		nw, _ := recycleRun(t, s, 7)
		nw.freePayloads = append(nw.freePayloads, &boxed{})
		if len(nw.freeFanouts) == len(nw.fanouts) || len(nw.freeDeliveries) == len(nw.deliveries) {
			t.Fatalf("no fanout (%d of %d free) or no delivery (%d of %d free) in flight at the cut",
				len(nw.freeFanouts), len(nw.fanouts), len(nw.freeDeliveries), len(nw.deliveries))
		}
		queuedAny := false
		for p := range nw.vboxes {
			queuedAny = queuedAny || queued(nw, model.ProcID(p)) > 0
		}
		if !queuedAny {
			t.Fatal("no message queued at the cut; the test would check no inbox")
		}
		fanouts, deliveries := slices.Clone(nw.fanouts), slices.Clone(nw.deliveries)
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
				checkRecycled(t, got, fanouts, deliveries)
			}
			if other, _ := New(2, WithScheduler(s2)); other == got {
				t.Fatal("a second New in one run reused the run's own network")
			}
			// The reused network replays a run on fresh storage exactly. Its
			// scheduler then goes back to the pool for the next size.
			got.Shutdown()
			s2.Recycle()
			s3 := vclock.New(steps(n))
			nwAgain, log := recycleRun(t, s3, n)
			// s3 took the one scheduler in the pool: this one is new.
			_, want := recycleRun(t, vclock.New(steps(n)), n)
			if !reflect.DeepEqual(log, want) {
				t.Fatalf("n=%d: arrivals on a recycled network (%v)\n%v\nwant, on a new one,\n%v", n, nwAgain == got, log, want)
			}
			s3.Recycle()
			s, nw = s3, nwAgain
		}
	}
}

// checkRecycled fails unless nw, just taken back by New, holds no payload and
// has every fanout and delivery it made on its freelists.
func checkRecycled(t *testing.T, nw *Network, fanouts []*fanout, deliveries []*delivery) {
	t.Helper()
	if !sameSet(nw.freeFanouts, fanouts) || !sameSet(nw.fanouts, fanouts) {
		t.Fatalf("%d fanouts free, %d recorded, want the %d made", len(nw.freeFanouts), len(nw.fanouts), len(fanouts))
	}
	for i, f := range fanouts {
		if f.payload != nil || f.to != nil || len(f.keys) != 0 || len(f.wide) != 0 || f.nw != nw {
			t.Fatalf("fanout %d keeps %+v", i, *f)
		}
	}
	if !sameSet(nw.freeDeliveries, deliveries) || !sameSet(nw.deliveries, deliveries) {
		t.Fatalf("%d deliveries free, %d recorded, want the %d made", len(nw.freeDeliveries), len(nw.deliveries), len(deliveries))
	}
	for i, d := range deliveries {
		if d.box != nil || d.msg != (Message{}) || d.nw != nw {
			t.Fatalf("delivery %d keeps %+v", i, *d)
		}
	}
	for i, b := range nw.vboxes[:cap(nw.vboxes)] {
		if b != nil && (b.Len() != 0 || b.Closed()) {
			t.Fatalf("inbox %d: %d queued, closed %v", i, b.Len(), b.Closed())
		}
	}
	if len(nw.freePayloads) != 0 || slices.ContainsFunc(nw.freePayloads[:cap(nw.freePayloads)], func(p any) bool { return p != nil }) {
		t.Fatal("the payload pool kept an object of the finished run")
	}
	if nw.closed || len(nw.vboxes) != nw.n || len(nw.everyone) != nw.n || len(nw.closedBox) != 1 || nw.closedBox[0] != 0 {
		t.Fatalf("network not sized for n=%d: closed %v, %d boxes, %d ids, bitmap %x", nw.n, nw.closed, len(nw.vboxes), len(nw.everyone), nw.closedBox)
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
