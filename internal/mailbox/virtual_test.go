package mailbox

import (
	"testing"

	"allforone/internal/vclock"
)

// A consumer coroutine drains items Put by scheduled events, parking in
// between, and observes Close.
func TestVirtualPutGetClose(t *testing.T) {
	s := vclock.New()
	box := NewVirtual[int]()
	var got []int
	closedSeen := false
	p := s.Spawn("consumer", func() {
		for {
			v, ok := box.Get()
			if !ok {
				closedSeen = true
				return
			}
			got = append(got, v)
		}
	})
	box.Bind(p)
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
	if !closedSeen {
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

// An empty open inbox with no future Put quiesces the scheduler; Get
// reports failure so the consumer can unwind as blocked.
func TestVirtualQuiescentGetFails(t *testing.T) {
	s := vclock.New()
	box := NewVirtual[int]()
	gotOK := true
	p := s.Spawn("consumer", func() { _, gotOK = box.Get() })
	box.Bind(p)
	out := s.Run()
	if !out.Quiesced {
		t.Fatalf("outcome = %+v, want Quiesced", out)
	}
	if gotOK {
		t.Fatal("Get on a forever-empty inbox reported ok")
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

// Len tracks the queued backlog through interleaved puts and gets,
// including across the ring-compaction path.
func TestVirtualLenAndCompaction(t *testing.T) {
	s := vclock.New()
	box := NewVirtual[int]()
	sum := 0
	p := s.Spawn("consumer", func() {
		for i := 0; i < 200; i++ {
			v, ok := box.Get()
			if !ok {
				t.Error("unexpected close")
				return
			}
			sum += v
		}
	})
	box.Bind(p)
	for i := 1; i <= 200; i++ {
		i := i
		s.At(vclock.Time(i%7), func() { box.Put(i) })
	}
	out := s.Run()
	if out.Aborted() {
		t.Fatalf("outcome = %+v, want clean", out)
	}
	if want := 200 * 201 / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if box.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", box.Len())
	}
}
