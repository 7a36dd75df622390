package mailbox

import (
	"testing"

	"allforone/internal/vclock"
)

// ending records how a consumer stopped.
type ending struct{ closed, aborted bool }

// consume binds a handler process to box that drains it on every wake,
// handing each item to got, until the inbox is closed and drained, got
// returns false, or the run aborts.
func consume(s *vclock.Scheduler, box *Virtual[int], got func(int) bool) *ending {
	end := new(ending)
	var p *vclock.Proc
	p = s.SpawnHandler("consumer", func(aborted bool) {
		if aborted {
			end.aborted = true
			p.Finish()
			return
		}
		for {
			v, ok, closed := box.TryGetOrClosed()
			if !ok {
				if closed {
					end.closed = true
					p.Finish()
				}
				return
			}
			if !got(v) {
				p.Finish()
				return
			}
		}
	})
	box.Bind(p)
	return end
}

// A consumer drains items Put by scheduled events, waiting in between, and
// observes Close.
func TestVirtualPutGetClose(t *testing.T) {
	s := vclock.New()
	box := NewVirtual[int]()
	var got []int
	end := consume(s, box, func(v int) bool { got = append(got, v); return true })
	s.At(1, func() { box.Put(10) })
	s.At(2, func() { box.Put(20); box.Put(30) })
	s.At(3, func() { box.Close() })
	out := s.Run()
	if out.Aborted() {
		t.Fatalf("outcome = %+v, want clean", out)
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("got = %v, want [10 20 30]", got)
	}
	if !end.closed {
		t.Fatal("consumer never observed close")
	}
}

// Put on a closed inbox is dropped.
func TestVirtualPutAfterClose(t *testing.T) {
	box := NewVirtual[int]()
	box.Close()
	if box.Put(1) {
		t.Fatal("Put on closed inbox reported enqueued")
	}
	if _, ok := box.TryGet(); ok {
		t.Fatal("TryGet returned an item from a closed empty inbox")
	}
}

// TryGetOrClosed reports closed only once the inbox is closed and drained:
// a closed inbox still hands out its queued items, and an empty open one is
// merely empty — with no future Put its consumer waits until the scheduler
// quiesces and aborts it.
func TestVirtualClosedDrainedVerdict(t *testing.T) {
	box := NewVirtual[int]()
	box.Put(1)
	box.Close()
	if v, ok, closed := box.TryGetOrClosed(); !ok || closed || v != 1 {
		t.Fatalf("closed inbox with an item: TryGetOrClosed = %d, %v, %v; want 1, true, false", v, ok, closed)
	}
	if _, ok, closed := box.TryGetOrClosed(); ok || !closed {
		t.Fatalf("closed, drained inbox: ok = %v, closed = %v; want false, true", ok, closed)
	}

	s := vclock.New()
	open := NewVirtual[int]()
	end := consume(s, open, func(int) bool { return true })
	out := s.Run()
	if !out.Quiesced {
		t.Fatalf("outcome = %+v, want Quiesced", out)
	}
	if end.closed || !end.aborted {
		t.Fatalf("consumer of a forever-empty open inbox ended %+v, want aborted", *end)
	}
}

// The ring buffer is reused across fill/drain episodes: once warmed to an
// episode's high-water mark, steady-state Put/TryGet cycles — including
// wrap-around — allocate nothing.
func TestVirtualRingReuse(t *testing.T) {
	box := NewVirtual[int]()
	// Warm the ring to capacity ≥ 8 and misalign head so the ring wraps.
	for i := 0; i < 5; i++ {
		box.Put(i)
	}
	for i := 0; i < 3; i++ {
		box.TryGet()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			box.Put(i)
		}
		for i := 0; i < 8; i++ {
			if _, ok := box.TryGet(); !ok {
				t.Fatal("ring lost an item")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state fill/drain allocates %.1f per episode, want 0", allocs)
	}
	// FIFO order must survive arbitrary wrap points.
	box2 := NewVirtual[int]()
	next := 0
	for put := 0; put < 1000; {
		for k := 0; k < 3 && put < 1000; k++ {
			box2.Put(put)
			put++
		}
		for box2.Len() > 1 {
			v, _ := box2.TryGet()
			if v != next {
				t.Fatalf("out of order: got %d, want %d", v, next)
			}
			next++
		}
	}
}

// Len tracks the queued backlog through interleaved puts and drains,
// including across the ring-compaction path.
func TestVirtualLenAndCompaction(t *testing.T) {
	s := vclock.New()
	box := NewVirtual[int]()
	sum, n := 0, 0
	end := consume(s, box, func(v int) bool {
		sum += v
		n++
		return n < 200
	})
	for i := 1; i <= 200; i++ {
		i := i
		s.At(vclock.Time(i%7), func() { box.Put(i) })
	}
	out := s.Run()
	if out.Aborted() || end.closed {
		t.Fatalf("outcome = %+v, consumer %+v, want clean", out, *end)
	}
	if want := 200 * 201 / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if box.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", box.Len())
	}
}
