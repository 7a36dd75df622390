package netsim

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"time"

	"allforone/internal/model"
	"allforone/internal/vclock"
)

// sortFanKeys must order keys exactly as a stable sort on the delay field
// does — on both sides of the crossover, under heavy ties, and for recipient
// lists in any order — because that permutation is the schedule.
func TestSortFanKeysMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 34))
	sizes := []int{0, 1, 2, 7, fanSortCrossover - 1, fanSortCrossover, fanSortCrossover + 1, 300}
	spans := []int64{0, 3, 200_000, 2_000_000} // ns; 0 and 3 are all ties
	for _, k := range sizes {
		for _, span := range spans {
			for _, order := range []string{"ascending", "descending", "shuffled"} {
				t.Run(fmt.Sprintf("k=%d/span=%d/%s", k, span, order), func(t *testing.T) {
					for trial := 0; trial < 20; trial++ {
						to := make([]uint64, k)
						for i := range to {
							to[i] = uint64(i)
						}
						switch order {
						case "descending":
							slices.Reverse(to)
						case "shuffled":
							rng.Shuffle(k, func(i, j int) { to[i], to[j] = to[j], to[i] })
						}
						keys := make([]uint64, k)
						maxDelay := uint64(0)
						for i := range keys {
							d := uint64(rng.Int64N(span + 1))
							maxDelay = max(maxDelay, d)
							keys[i] = d<<fanSeqBits | to[i]
						}
						want := slices.Clone(keys)
						sort.SliceStable(want, func(i, j int) bool {
							return want[i]>>fanSeqBits < want[j]>>fanSeqBits
						})
						var alt []uint64
						got := sortFanKeys(keys, &alt, maxDelay)
						if !slices.Equal(got, want) {
							t.Fatalf("trial %d: sortFanKeys order differs from sort.SliceStable on the delay field\n got %v\nwant %v",
								trial, got, want)
						}
					}
				})
			}
		}
	}
}

// A crash-cut broadcast whose DeliverTo list is not ascending: recipients
// whose arrivals share an instant must be woken in list order, the append
// position being the sort's tie-break.
func TestVirtualBroadcastSubsetDescendingListOrder(t *testing.T) {
	const n = 6
	s := vclock.New()
	// p1 and p2 arrive later than the rest; within an instant, list order.
	nw, err := New(n, WithScheduler(s), WithTimedDelayFn(
		func(_ time.Duration, _ *rand.Rand, m Message) time.Duration {
			if m.To == 1 || m.To == 2 {
				return 30 * time.Microsecond
			}
			return 10 * time.Microsecond
		}))
	if err != nil {
		t.Fatal(err)
	}
	type wake struct {
		to model.ProcID
		at vclock.Time
	}
	var woke []wake
	for p := 0; p < n; p++ {
		p := model.ProcID(p)
		var proc *vclock.Proc
		proc = s.SpawnHandler("consumer", func(aborted bool) {
			if aborted { // quiescence: the run is over
				proc.Finish()
				return
			}
			for {
				if _, ok, _ := nw.ReceiveNow(p); !ok {
					return
				}
				woke = append(woke, wake{to: p, at: s.Now()})
			}
		})
		nw.Bind(p, proc)
	}
	s.At(0, func() {
		nw.BroadcastSubset(0, "crash-cut", []model.ProcID{5, 2, 4, 1, 0})
	})
	s.Run()
	const early, late = vclock.Time(10 * time.Microsecond), vclock.Time(30 * time.Microsecond)
	want := []wake{{5, early}, {4, early}, {0, early}, {2, late}, {1, late}}
	if !slices.Equal(woke, want) {
		t.Fatalf("wake order = %v, want %v", woke, want)
	}
}
