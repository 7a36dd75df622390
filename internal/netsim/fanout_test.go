package netsim

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"allforone/internal/model"
	"allforone/internal/vclock"
)

// fanCase is one broadcast of the property test: a recipient list (any order,
// possibly with out-of-range entries) and the delay each in-range recipient
// draws.
type fanCase struct {
	list  []model.ProcID
	delay []time.Duration // by recipient id
}

// drawFanCase builds a broadcast to the k processes 0 … k-1 of an n-process
// network in the given list order, with delays uniform in [0, span], two of
// them pinned to 0 and span so the spread is exactly span; dirty additionally
// sprinkles out-of-range entries through the list.
func drawFanCase(rng *rand.Rand, n, k int, span int64, order string, dirty bool) fanCase {
	c := fanCase{delay: make([]time.Duration, n)}
	for i := 0; i < k; i++ {
		c.list = append(c.list, model.ProcID(i))
		c.delay[i] = time.Duration(rng.Int64N(span + 1))
	}
	if k >= 2 {
		c.delay[rng.IntN(k)] = 0
		c.delay[(rng.IntN(k-1)+1+slices.Index(c.delay[:k], 0))%k] = time.Duration(span)
	}
	switch order {
	case "descending":
		slices.Reverse(c.list)
	case "shuffled":
		rng.Shuffle(k, func(i, j int) { c.list[i], c.list[j] = c.list[j], c.list[i] })
	}
	if dirty {
		for _, bad := range []model.ProcID{-1, model.ProcID(n), model.ProcID(n + 40)} {
			c.list = slices.Insert(c.list, rng.IntN(len(c.list)+1), bad)
		}
	}
	return c
}

// fanSpread returns the delay spread at which a fanout to a list of the given
// length leaves the 4-byte entry form for the 8-byte one.
func fanSpread(listLen int) int64 {
	return 1 << (32 - bits.Len(uint(max(listLen, 1)-1)))
}

// The lazily ordered fanout must deliver exactly as a stable sort of its
// arrivals by delay would — ties in recipient-list order, ascending or not —
// because that permutation is the schedule. Every cell drives three
// back-to-back broadcasts through one network, so one pooled fanout is loaded
// again after exhaustion with a different list, size and entry form, and
// crosses them with recipients out of range, closed at send time, closed
// while the fanout is in flight, and a Shutdown mid-fanout; span 0 and 3 are
// all ties, narrow-max and wide-min sit on the two sides of the entry-form
// boundary, and 3 s is far past it.
func TestSortFanKeysMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 34))
	sizes := []int{0, 1, 2, 7, 127, 128, 129, 300}
	spans := []string{"0", "3", "200000", "2000000", "narrow-max", "wide-min", "3000000000"}
	for _, k := range sizes {
		for _, spanName := range spans {
			for _, order := range []string{"ascending", "descending", "shuffled"} {
				t.Run(fmt.Sprintf("k=%d/span=%s/%s", k, spanName, order), func(t *testing.T) {
					for trial := 0; trial < 8; trial++ {
						dirty := trial%2 == 1
						listLen := k
						if dirty {
							listLen += 3
						}
						var span int64
						switch spanName {
						case "narrow-max":
							span = fanSpread(listLen) - 1
						case "wide-min":
							span = fanSpread(listLen)
						default:
							fmt.Sscan(spanName, &span)
						}
						checkFanoutOrder(t, rng, k, span, order, dirty, trial%4 >= 2)
					}
				})
			}
		}
	}
}

// checkFanoutOrder runs one trial of the property test on a fresh network of
// max(k, 1) processes and compares its delivery trace with the reference.
// When shutdown is set the network shuts down in the middle of the second
// broadcast (a partial drain).
func checkFanoutOrder(t *testing.T, rng *rand.Rand, k int, span int64, order string, dirty, shutdown bool) {
	t.Helper()
	const rounds = 3
	n := max(k, 1)
	never := vclock.Time(1) << 62
	var cases [rounds]fanCase
	tn := newTracedNet(t, n, WithTimedDelayFn(func(_ time.Duration, _ *rand.Rand, m Message) time.Duration {
		return cases[m.Payload.(int)].delay[m.To]
	}))
	nw, s := tn.nw, tn.s
	// Rounds start a full span apart, so a fanout is exhausted (and back in
	// the pool) before the next one loads.
	start := func(r int) vclock.Time { return vclock.Time(r) * vclock.Time(span+1) }
	// closeAt[p] is when p's inbox closes; the close events are scheduled
	// before any send, so at a tying instant the close fires first.
	closeAt := make([]vclock.Time, n)
	for p := range closeAt {
		closeAt[p] = never
		if k > 0 && rng.IntN(4) == 0 {
			closeAt[p] = vclock.Time(rng.Int64N(int64(start(rounds)) + 1))
			p := model.ProcID(p)
			s.At(closeAt[p], func() { nw.CloseInbox(p) })
		}
	}
	downAt := never
	if shutdown {
		downAt = start(1) + vclock.Time(span/2)
		s.At(downAt, nw.Shutdown)
	}
	var want []arrival
	var wantWide, wantNarrow bool
	for r := range cases {
		r := r
		// The rounds differ in size too: the pooled fanout shrinks and grows.
		c := drawFanCase(rng, n, k, span, order, dirty)
		if r == 1 && k > 4 {
			c.list = c.list[:len(c.list)/2]
		}
		cases[r] = c
		wholeNet := !dirty && order == "ascending" && len(c.list) == n && len(nw.shards) == 0
		s.At(start(r), func() {
			if wholeNet {
				nw.SendAll(0, r)
				return
			}
			list := slices.Clone(c.list)
			nw.BroadcastSubset(0, r, list)
			clear(list) // the fanout must not read the caller's slice again
		})
		var sent []arrival
		for _, p := range c.list {
			if p < 0 || int(p) >= n || closeAt[p] <= start(r) || downAt <= start(r) {
				continue
			}
			sent = append(sent, arrival{At: start(r) + vclock.Time(c.delay[p]), From: 0, To: p, Payload: r})
		}
		sort.SliceStable(sent, func(i, j int) bool { return sent[i].At < sent[j].At })
		for _, a := range sent {
			if a.At < closeAt[a.To] && a.At < downAt {
				want = append(want, a)
			}
		}
		// The entry form is a function of the list length and the spread of
		// the delays packed (closed-at-send recipients are not).
		if len(sent) > 0 {
			spread := int64(sent[len(sent)-1].At - sent[0].At)
			if spread >= fanSpread(len(c.list)) {
				wantWide = true
			} else {
				wantNarrow = true
			}
		}
	}
	s.Run()
	if !reflect.DeepEqual(tn.trace, want) {
		t.Fatalf("k=%d span=%d %s dirty=%v shutdown=%v: delivery trace differs from the stable sort by delay\n got %v\nwant %v",
			k, span, order, dirty, shutdown, tn.trace, want)
	}
	// One pooled fanout served every round, in the forms predicted.
	if !wantWide && !wantNarrow {
		if len(nw.freeFanouts) != 0 {
			t.Fatalf("k=%d: %d pooled fanouts after a run that packed nothing", k, len(nw.freeFanouts))
		}
		return
	}
	if len(nw.freeFanouts) != 1 {
		t.Fatalf("k=%d span=%d: %d pooled fanouts, want the one reused by every round", k, span, len(nw.freeFanouts))
	}
	f := nw.freeFanouts[0]
	if gotWide, gotNarrow := cap(f.wide) > 0, cap(f.keys) > 0; gotWide != wantWide || gotNarrow != wantNarrow {
		t.Fatalf("k=%d span=%d: entry forms used wide=%v narrow=%v, want wide=%v narrow=%v", k, span, gotWide, gotNarrow, wantWide, wantNarrow)
	}
	if len(f.wide) != 0 || len(f.keys) != 0 || f.payload != nil {
		t.Fatalf("k=%d span=%d: released fanout still holds %d+%d entries, payload %v", k, span, len(f.keys), len(f.wide), f.payload)
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
