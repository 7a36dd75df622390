package netsim

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"
)

// TestUniformDrawMatchesLibrary: the uniform band's draw off the concrete
// PCG is bit-identical to (*rand.Rand).Int64N(span+1) on a twin source — for
// spans from 1 to 2⁴⁰, with span+1 a power of two (the library's mask path)
// and not (its multiply-and-reject path), over several seeds — and leaves the
// stream where the library leaves it, so every later draw of a run agrees
// too.
func TestUniformDrawMatchesLibrary(t *testing.T) {
	var spans []uint64
	for k := 0; k <= 40; k++ {
		p := uint64(1) << k
		spans = append(spans, p, p-1, p+1, 3*p)
	}
	spans = append(spans, 200_000, 1_950_000, 1<<40-12345)
	for seed := uint64(1); seed <= 5; seed++ {
		for _, span := range spans {
			if span == 0 || span > 1<<40 {
				continue
			}
			func() {
				where := fmt.Sprintf("seed=%d span=%d", seed, span)
				var src, twin rand.PCG
				src.Seed(seed, seed^0xda3e39cb94b95bdb)
				twin.Seed(seed, seed^0xda3e39cb94b95bdb)
				rng, ref := rand.New(&src), rand.New(&twin)
				o := options{uniform: true, uniMin: 3, uniSpan: time.Duration(span)}
				for i := 0; i < 64; i++ {
					if i%2 == 0 {
						got, want := uint64n(&src, rng, span+1), uint64(ref.Int64N(int64(span)+1))
						if got != want {
							t.Fatalf("%s: draw %d: %d, want %d", where, i, got, want)
						}
						continue
					}
					got, want := o.draw(&src, rng, 0, Message{}), 3+time.Duration(ref.Int64N(int64(span)+1))
					if got != want {
						t.Fatalf("%s: band draw %d: %v, want %v", where, i, got, want)
					}
				}
				if src != twin {
					t.Fatalf("%s: the draws left the stream elsewhere than the library does", where)
				}
			}()
		}
	}
}
