package netsim

import (
	"math/rand/v2"
	"testing"

	"allforone/internal/model"
	"allforone/internal/vclock"
)

// TestInboxAgainstReference replays seeded put / get / close / reset
// sequences through a network's inboxes — deliveries as the scheduler hands
// them over, ReceiveNow, CloseInbox, and the reset a recycled network gives
// its inboxes — and checks every result against a slice FIFO and a closed
// flag per process. Bursts of puts and drains move each queue back and forth
// across the inline slot, the ring and the ring's growth, wrapped and not.
func TestInboxAgainstReference(t *testing.T) {
	const n = 3
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		s := vclock.New()
		nw, err := New(n, WithScheduler(s))
		if err != nil {
			t.Fatal(err)
		}
		bind := func() {
			for p := range n {
				nw.Bind(model.ProcID(p), nil)
			}
		}
		bind()
		d := (*deliverer)(nw)
		type msg struct {
			from    int
			payload any
		}
		ref := make([][]msg, n)
		closed := make([]bool, n)
		next := 0
		maxLen := 0
		for step := 0; step < 3000; step++ {
			p := rng.IntN(n)
			switch op := rng.IntN(100); {
			case op < 50: // a burst of deliveries
				for k := rng.IntN(12); k >= 0; k-- {
					from := rng.IntN(n)
					next++
					var payload any = next
					if next%7 == 0 {
						payload = nil // a nil payload is a message too
					}
					d.Deliver(from, p, payload)
					if !closed[p] {
						ref[p] = append(ref[p], msg{from, payload})
					}
				}
			case op < 94: // a partial or whole drain
				for k := rng.IntN(14); k >= 0; k-- {
					m, ok, isClosed := nw.ReceiveNow(model.ProcID(p))
					if len(ref[p]) == 0 {
						if ok || isClosed != closed[p] {
							t.Fatalf("seed %d step %d: empty inbox %d gave ok %v closed %v, want closed %v", seed, step, p, ok, isClosed, closed[p])
						}
						break
					}
					want := ref[p][0]
					ref[p] = ref[p][1:]
					if !ok || isClosed || m.From != model.ProcID(want.from) || m.To != model.ProcID(p) || m.Payload != want.payload {
						t.Fatalf("seed %d step %d: inbox %d gave %+v ok %v closed %v, want %+v", seed, step, p, m, ok, isClosed, want)
					}
				}
			case op < 97:
				nw.CloseInbox(model.ProcID(p))
				closed[p] = true
			default: // the run ends: every inbox is reset and reopened
				nw.recycle()
				clear(nw.closedBox)
				bind()
				for q := range ref {
					ref[q], closed[q] = nil, false
				}
			}
			for q := range n {
				if got := nw.boxes[q].box.Len(); got != len(ref[q]) {
					t.Fatalf("seed %d step %d: inbox %d holds %d, want %d", seed, step, q, got, len(ref[q]))
				}
				maxLen = max(maxLen, len(ref[q]))
			}
		}
		if maxLen < 9 {
			t.Fatalf("seed %d: no inbox held more than %d messages; the ring never grew twice", seed, maxLen)
		}
	}
}
