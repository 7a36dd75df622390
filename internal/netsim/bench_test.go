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
// reached — in ns per SENT message, over the fanout width k (7: the paper's
// trials; 128: a shard stripe; 512: the widest one), the share of the
// arrivals delivered before the run ends (2 %: the one-for-all regime of
// hybrid-dense; 100 %: Ben-Or), and the delay span (0: immediate delivery,
// one cohort). The /head rows load as a sharded broadcast under the band
// does: the head at the pack, the tail redrawn when the head drains. Every
// inbox is closed before the send but after its closure epoch, so the pack
// sees every inbox open, the deliveries find them closed and no mailbox work
// is measured; the scheduler is bypassed (deliverDue is Fire without the
// reschedule), and the run ends at the target, abandoning the tail.
// Its tables, next to the sort-at-send numbers the lazy order replaced, are in
// the design record at commit 6edc843 (git show 6edc843:DESIGN.md).
func BenchmarkFanoutLifecycle(b *testing.B) {
	for _, k := range []int{7, 128, 512} {
		for _, pct := range []int{2, 100} {
			for _, span := range []time.Duration{0, 200 * time.Microsecond, 2 * time.Millisecond} {
				b.Run(fmt.Sprintf("k=%d/consumed=%d%%/span=%v", k, pct, span), func(b *testing.B) {
					fanoutLifecycle(b, k, pct, span, false)
				})
				if k >= 128 && span == 2*time.Millisecond {
					b.Run(fmt.Sprintf("k=%d/consumed=%d%%/span=%v/head", k, pct, span), func(b *testing.B) {
						fanoutLifecycle(b, k, pct, span, true)
					})
				}
			}
		}
	}
}

// fanoutLifecycle is one cell of BenchmarkFanoutLifecycle; head loads under
// the band's head cut.
func fanoutLifecycle(b *testing.B, k, pct int, span time.Duration, head bool) {
	s := vclock.New()
	nw, err := New(k, WithScheduler(s), WithSeed(1), WithUniformDelay(0, span))
	if err != nil {
		b.Fatal(err)
	}
	e := fanEntry{payload: "m"} // sent at 0, at closure epoch 0
	for p := 0; p < k; p++ {
		nw.CloseInbox(model.ProcID(p))
	}
	cut := noCut
	if head {
		cut = nw.opts.headCut()
	}
	target := max(1, k*pct/100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _ := nw.fanStripe(&nw.packKeys, &nw.src, nw.rng, &e, nw.everyone, cut, nil)
		for done := 0; ; {
			var next vclock.Time
			if len(f.wide) != 0 {
				next = deliverDue(f, f.wide)
			} else {
				next = deliverDue(f, f.keys)
			}
			if next >= 0 {
				if done+int(f.next) >= target {
					break
				}
				continue
			}
			if !f.tail {
				break
			}
			done += len(f.keys) + len(f.wide)
			f.loadTail()
		}
		f.release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/msg")
}
