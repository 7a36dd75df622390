package netsim

import (
	"fmt"
	"testing"
	"time"

	"allforone/internal/model"
	"allforone/internal/vclock"
)

func BenchmarkSendReceive(b *testing.B) {
	i := 0
	onScheduler(b, 2, func(nw *Network) { nw.Send(0, 1, i) }, func(nw *Network) bool {
		for {
			if _, ok, _ := nw.ReceiveNow(1); !ok {
				return false
			}
			if i++; i == b.N {
				return true
			}
			nw.Send(0, 1, i)
		}
	})
}

func BenchmarkBroadcast(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			i, p := 0, 0
			onScheduler(b, n, func(nw *Network) { nw.Broadcast(0, i) }, func(nw *Network) bool {
				for {
					for ; p < n; p++ {
						if _, ok, _ := nw.ReceiveNow(model.ProcID(p)); !ok {
							return false
						}
					}
					if i++; i == b.N {
						return true
					}
					nw.Broadcast(0, i)
					p = 0
				}
			})
		})
	}
}

// BenchmarkFanoutLifecycle measures what one broadcast's arrivals cost between
// the delay draw and the fanout's return to its pool — pack, load (one
// bucketing pass) and the sorting and delivery of the buckets that are
// reached — in ns per SENT
// message, over the fanout width k (7: the paper's trials; 128: a shard
// stripe; 512: the widest one), the share of the arrivals delivered before
// the run ends (2 %: the one-for-all regime of hybrid-dense; 100 %: Ben-Or),
// and the delay span (0: immediate delivery, one cohort). Every inbox is
// closed after the pack, so no mailbox work is measured, and the scheduler is
// bypassed (deliverDue is Fire without the reschedule); the run ends there,
// abandoning the tail. DESIGN.md §11 holds
// its table next to the sort-at-send numbers it replaced.
func BenchmarkFanoutLifecycle(b *testing.B) {
	for _, k := range []int{7, 128, 512} {
		for _, pct := range []int{2, 100} {
			for _, span := range []time.Duration{0, 200 * time.Microsecond, 2 * time.Millisecond} {
				b.Run(fmt.Sprintf("k=%d/consumed=%d%%/span=%v", k, pct, span), func(b *testing.B) {
					s := vclock.New()
					nw, err := New(k, WithScheduler(s), WithSeed(1), WithUniformDelay(0, span))
					if err != nil {
						b.Fatal(err)
					}
					open := make([]uint64, len(nw.closedBox)) // the pack sees every inbox open
					for p := 0; p < k; p++ {
						nw.CloseInbox(model.ProcID(p)) // … and the deliveries find them closed
					}
					target := max(1, k*pct/100)
					var payload any = "m"
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						keys, minDelay, maxDelay := nw.packFan(nw.packKeys[:0], &nw.src, nw.rng, 0, 0, payload, nw.everyone, open, nil)
						nw.packKeys = keys[:0]
						f := nw.getFanout()
						f.from, f.payload = 0, payload
						f.load(keys, nw.everyone, 0, minDelay, maxDelay)
						for next := vclock.Time(0); next >= 0 && int(f.next) < target; {
							if len(f.wide) != 0 {
								next = deliverDue(f, f.wide)
							} else {
								next = deliverDue(f, f.keys)
							}
						}
						f.release()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/msg")
				})
			}
		}
	}
}
