package vclock

import (
	"fmt"
	"testing"
)

// BenchmarkHandoffVsHandler isolates the cost the handler body form
// removes: the channel rendezvous + goroutine context switch of every
// coroutine Park/Wake cycle, versus a plain function invocation under the
// scheduler's execution token. Both variants process the same number of
// wake events through the same timer wheel; the delta per op is pure
// body-form overhead.
func BenchmarkHandoffVsHandler(b *testing.B) {
	const wakes = 1024

	b.Run("coroutine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := New()
			n := 0
			var p *Proc
			p = s.Spawn("worker", func() {
				for n < wakes {
					if !p.Park() {
						return
					}
					n++
				}
			})
			for t := 1; t <= wakes; t++ {
				s.At(Time(t), p.Wake)
			}
			out := s.Run()
			if n != wakes || out.Aborted() {
				b.Fatalf("wakes=%d outcome=%+v", n, out)
			}
		}
	})

	b.Run("handler", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := New()
			n := 0
			var p *Proc
			p = s.SpawnHandler("worker", func(aborted bool) {
				if aborted {
					p.Finish()
					return
				}
				n++
				if n == wakes+1 { // initial invocation + one per wake
					p.Finish()
				}
			})
			for t := 1; t <= wakes; t++ {
				s.At(Time(t), p.Wake)
			}
			out := s.Run()
			if n != wakes+1 || out.Aborted() {
				b.Fatalf("invocations=%d outcome=%+v", n, out)
			}
		}
	})
}

// drainEvent is one event of BenchmarkWheelDrain. A spawning event schedules
// its late partner halfway to the end of the slot that is open when it fires,
// so the partner enters the slot being drained.
type drainEvent struct {
	s    *Scheduler
	late *drainEvent // nil: this event spawns nothing
}

func (e *drainEvent) Fire() {
	if e.late == nil {
		return
	}
	const slotW = Time(1) << slotWidthShift
	now := e.s.Now()
	e.s.AtEvent(now+(slotW-1-now&(slotW-1))/2, e.late)
}

// BenchmarkWheelDrain is the layer benchmark of the wheel's pop path: ns per
// event from insert to fire, over k events per 16 µs slot and the share of
// them that enters the slot while it is open (scheduled from a Fire in it).
// Each iteration fills a new scheduler — up-front events at scattered instants
// of every slot, in seq order, as a window's expansion leaves them — and runs
// it dry; slots are as many as make ≈ 64 K events, between 2 and 128 (inside
// the window: nothing cascades).
//
// sortCrossover is read off the late=0% rows with the constant forced to 0
// (every bucket takes the counting passes) and to 1<<30 (none does). 2-vCPU
// builder box, -cpu 2, ns/event, two runs each:
//
//	k        insertion pass alone    counting passes
//	4                   34   35           66   76
//	8                   36   39           53   59
//	16                  37   38           44   52
//	32                  45   49           39   45
//	48                  52   57           39   40
//	64                  57   66           39   41
//	256                118  118           34   36
//
// (k = 8, 48 and 64 were measured by adding them to the list below.) The table
// against the heap bucket this form replaced is in the design record at
// commit 6edc843 (git show 6edc843:DESIGN.md).
func BenchmarkWheelDrain(b *testing.B) {
	const slotW = Time(1) << slotWidthShift
	for _, k := range []int{4, 16, 32, 256, 2048, 16384} {
		for _, latePct := range []int{0, 5, 40} {
			b.Run(fmt.Sprintf("k=%d/late=%d%%", k, latePct), func(b *testing.B) {
				slots := min(max(2, 1<<16/k), 128)
				late := k * latePct / 100
				early := k - late
				evs := make([]drainEvent, slots*k)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := New()
					next, rnd := 0, uint32(1)
					for sl := 0; sl < slots; sl++ {
						for j := 0; j < early; j++ {
							e := &evs[next]
							*e = drainEvent{s: s}
							next++
							// Bresenham: late of the early events spawn one each.
							if (j+1)*late/early > j*late/early {
								e.late = &evs[next]
								*e.late = drainEvent{s: s}
								next++
							}
							rnd = rnd*1664525 + 1013904223
							s.AtEvent(Time(sl+1)*slotW+Time(rnd>>18), e)
						}
					}
					if out := s.Run(); out.Steps != int64(len(evs)) {
						b.Fatalf("fired %d of %d events", out.Steps, len(evs))
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
			})
		}
	}
}
