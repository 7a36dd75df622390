package netsim

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"allforone/internal/model"
)

func BenchmarkSendReceive(b *testing.B) {
	onScheduler(b, 2, func(nw *Network) {
		for i := 0; i < b.N; i++ {
			nw.Send(0, 1, i)
			if _, ok := nw.Receive(1); !ok {
				b.Error("Receive failed")
				return
			}
		}
	})
}

func BenchmarkBroadcast(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			onScheduler(b, n, func(nw *Network) {
				for i := 0; i < b.N; i++ {
					nw.Broadcast(0, i)
					for p := 0; p < n; p++ {
						if _, ok := nw.Receive(model.ProcID(p)); !ok {
							b.Error("Receive failed")
							return
						}
					}
				}
			})
		})
	}
}

// fanKeys draws k packed (delay<<fanSeqBits)|recipient keys the way sendFan
// builds them: recipients 0 … k-1 in list order, delays uniform in [0, span].
func fanKeys(rng *rand.Rand, k int, span time.Duration) (keys []uint64, maxDelay uint64) {
	keys = make([]uint64, k)
	for i := range keys {
		d := uint64(rng.Int64N(int64(span) + 1))
		if d > maxDelay {
			maxDelay = d
		}
		keys[i] = d<<fanSeqBits | uint64(i)
	}
	return keys, maxDelay
}

// BenchmarkSendFanSort measures the two algorithms behind sortFanKeys on the
// keys of one k-recipient broadcast; fanSortCrossover is read off its table.
// Each iteration sorts a fresh copy of one of 64 pre-drawn broadcasts.
func BenchmarkSendFanSort(b *testing.B) {
	for _, span := range []time.Duration{200 * time.Microsecond, 2 * time.Millisecond} {
		for _, k := range []int{7, 32, 64, 128, 255, 1024} {
			rng := rand.New(rand.NewPCG(uint64(k), uint64(span)))
			var inputs [64][]uint64
			var maxDelay uint64
			for i := range inputs {
				var m uint64
				inputs[i], m = fanKeys(rng, k, span)
				maxDelay = max(maxDelay, m)
			}
			scratch := make([]uint64, k)
			var alt []uint64
			name := fmt.Sprintf("span=%v/k=%d", span, k)
			b.Run(name+"/radix", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(scratch, inputs[i&63])
					radixSortU64(scratch, &alt, maxDelay<<fanSeqBits, fanSeqBits)
				}
			})
			b.Run(name+"/insertion", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(scratch, inputs[i&63])
					insertionSortByDelay(scratch)
				}
			})
		}
	}
}
