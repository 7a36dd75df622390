package allconcur

import (
	"cmp"
	"fmt"
	"maps"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"allforone/internal/model"
	"allforone/internal/overlay"
)

// refIngest is the per-origin reference model of one reactor's ingest:
// the delivered origins as a map, the FAIL certificates as a set, and the
// news that arrived since the last flush (origins, and FAILs in arrival
// order).
type refIngest struct {
	g         *overlay.Graph
	delivered map[uint32]bool
	fails     map[[2]model.ProcID]bool
	crashed   map[model.ProcID]bool
	newVals   map[uint32]bool
	newFails  []item
}

func newRefIngest(g *overlay.Graph) *refIngest {
	return &refIngest{g: g, delivered: map[uint32]bool{}, fails: map[[2]model.ProcID]bool{},
		crashed: map[model.ProcID]bool{}, newVals: map[uint32]bool{}}
}

func (m *refIngest) val(q uint32) {
	if !m.delivered[q] {
		m.delivered[q] = true
		m.newVals[q] = true
	}
}

// fail records FAIL(f, s); streams carry only well-formed certificates
// (s a successor of f).
func (m *refIngest) fail(f, s model.ProcID) {
	m.crashed[f] = true
	if !m.fails[[2]model.ProcID{f, s}] {
		m.fails[[2]model.ProcID{f, s}] = true
		m.newFails = append(m.newFails, failItem(f, s))
	}
}

func (m *refIngest) items(items []item) {
	for _, it := range items {
		if it.Word == failWord {
			m.fail(model.ProcID(it.Lo), model.ProcID(it.Hi))
			continue
		}
		for mask := it.mask(); mask != 0; mask &= mask - 1 {
			m.val(it.Word<<6 + uint32(bits.TrailingZeros64(mask)))
		}
	}
}

func (m *refIngest) minOrigin() model.ProcID {
	low := uint32(m.g.N())
	for q := range m.delivered {
		low = min(low, q)
	}
	return model.ProcID(low)
}

// complete is the exclusion rule read straight off the package comment:
// every origin is delivered, or every process of its suspect closure is
// known crashed with each outgoing channel certified drained or leading
// into the closure.
func (m *refIngest) complete() bool {
	for q := model.ProcID(0); int(q) < m.g.N(); q++ {
		if m.delivered[uint32(q)] {
			continue
		}
		seen := map[model.ProcID]bool{q: true}
		for todo := []model.ProcID{q}; len(todo) > 0; {
			f := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			if !m.crashed[f] {
				return false
			}
			for _, s := range m.g.Succ(f) {
				switch {
				case m.fails[[2]model.ProcID{f, s}]:
				case m.crashed[s]:
					if !seen[s] {
						seen[s] = true
						todo = append(todo, s)
					}
				default:
					return false
				}
			}
		}
	}
	return true
}

// ingestEvent is one payload of a replayed stream — an envelope from a
// predecessor, or that predecessor's tombstone marker when items is nil —
// optionally followed by a flush.
type ingestEvent struct {
	from  model.ProcID
	items []item
	flush bool
}

// floodStream draws a flood-order payload stream at process self: every
// live origin's value arrives in 1..d+2 copies, and so does each crashed
// origin's when escaped says it left before the crash; every FAIL(f, s)
// with s live and not self arrives in 1..3 copies; each crashed
// predecessor's tombstone arrives once. Envelopes carry up to 24 copies in
// block form, a block sometimes repeated within one envelope, FAIL items
// interleaved. A held-back share of the FAILs and tombstones, padded with
// duplicate values, forms a tail that lands after everything else — after
// the decision, when the values alone complete the set.
func floodStream(rng *rand.Rand, g *overlay.Graph, self model.ProcID, crashed map[model.ProcID]bool, escaped func(model.ProcID) bool) []ingestEvent {
	type atom struct {
		it     item
		marker bool
		from   model.ProcID
	}
	var main, tail []atom
	d := len(g.Succ(self))
	for q := model.ProcID(0); int(q) < g.N(); q++ {
		if crashed[q] && !escaped(q) {
			continue
		}
		for c := rng.IntN(d + 2); c >= 0; c-- {
			main = append(main, atom{it: valItem(int(q>>6), 1<<(q&63))})
		}
	}
	for _, f := range slices.Sorted(maps.Keys(crashed)) {
		for _, s := range g.Succ(f) {
			if crashed[s] || s == self {
				continue
			}
			for c := rng.IntN(3); c >= 0; c-- {
				if rng.IntN(2) == 0 {
					tail = append(tail, atom{it: failItem(f, s)})
				} else {
					main = append(main, atom{it: failItem(f, s)})
				}
			}
		}
		if slices.Contains(g.Pred(self), f) {
			tail = append(tail, atom{marker: true, from: f})
		}
	}
	for range len(tail) + 1 {
		tail = append(tail, main[rng.IntN(len(main))])
	}
	rng.Shuffle(len(main), func(i, j int) { main[i], main[j] = main[j], main[i] })
	rng.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })

	preds := g.Pred(self)
	var events []ingestEvent
	var env []item
	want := 1 + rng.IntN(24)
	emit := func() {
		if len(env) > 0 {
			events = append(events, ingestEvent{from: preds[rng.IntN(len(preds))], items: env, flush: rng.IntN(3) == 0})
			env, want = nil, 1+rng.IntN(24)
		}
	}
	for _, a := range append(main, tail...) {
		switch {
		case a.marker:
			emit()
			events = append(events, ingestEvent{from: a.from, flush: rng.IntN(2) == 0})
			continue
		case a.it.Word != failWord && rng.IntN(2) == 0:
			// merge into an item of the same block already in this envelope, if any
			if i := slices.IndexFunc(env, func(it item) bool { return it.Word == a.it.Word }); i >= 0 {
				env[i] = valItem(int(a.it.Word), env[i].mask()|a.it.mask())
				break
			}
			env = append(env, a.it)
		default:
			env = append(env, a.it)
		}
		if len(env) >= want {
			emit()
		}
	}
	emit()
	events[len(events)-1].flush = true
	return events
}

// TestIngestAgainstReference replays seeded flood-order streams through a
// reactor and through the per-origin reference model. After every payload
// the delivered row, Count, the decision candidate, the fail certificates
// and the termination verdict must agree; after every flush the forwarded
// news must be exactly what arrived new since the previous flush, as a set
// (each new origin in one VAL item, each block at most once, VAL items
// before FAIL items, the FAIL multiset equal). Streams mix repeated
// blocks, several copies per origin, FAIL items, tombstone markers and a
// relay-only tail after the decision.
func TestIngestAgainstReference(t *testing.T) {
	type cell struct {
		n    int
		spec overlay.Spec
	}
	cells := []cell{
		{130, overlay.Spec{Kind: overlay.KindDeBruijn, Degree: 4}},
		{256, overlay.Spec{Kind: overlay.KindCirculant, Degree: 3}},
		{64, overlay.Spec{Kind: overlay.KindRandom, Degree: 3, Seed: 5}},
	}
	escapes := map[string]func(model.ProcID) bool{
		"all-escaped":  func(model.ProcID) bool { return true },
		"none-escaped": func(model.ProcID) bool { return false },
		"odd-escaped":  func(q model.ProcID) bool { return q%2 == 1 },
	}
	tailNews := 0
	for _, c := range cells {
		g, err := c.spec.Build(c.n, 1)
		if err != nil {
			t.Fatal(err)
		}
		for name, escaped := range escapes {
			for seed := uint64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("n=%d/%v/%s/seed=%d", c.n, c.spec.Kind, name, seed), func(t *testing.T) {
					rng := rand.New(rand.NewPCG(seed, uint64(c.n)))
					self := model.ProcID(rng.IntN(c.n))
					// Two crashes plus one predecessor of self, so a tombstone
					// reaches it.
					crashed := map[model.ProcID]bool{g.Pred(self)[0]: true}
					for len(crashed) < 3 {
						if q := model.ProcID(rng.IntN(c.n)); q != self {
							crashed[q] = true
						}
					}
					tailNews += replayAgainstReference(t, g, self, floodStream(rng, g, self, crashed, escaped))
				})
			}
		}
	}
	if tailNews == 0 {
		t.Fatal("no stream carried new news after its decision: the relay-only tail went untested")
	}
}

// replayAgainstReference drives one stream and returns how many payloads
// after the decision still carried news.
func replayAgainstReference(t *testing.T, g *overlay.Graph, self model.ProcID, events []ingestEvent) (tailNews int) {
	t.Helper()
	n, words := g.N(), (g.N()+63)/64
	rx := &reactor{id: self, g: g, proposals: proposals(n),
		delivered: deliveredSet{blocks: make([]block, words)}}
	ref := newRefIngest(g)
	// The reactor's first invocation: its own value, flushed at once.
	rx.deliver(int(self>>6), 1<<(self&63))
	ref.val(uint32(self))
	checkFlush(t, "start", rx, ref)

	for step, ev := range events {
		where := fmt.Sprintf("payload %d", step)
		before := len(ref.newVals) + len(ref.newFails)
		if ev.items == nil {
			rx.ingest(ev.from, marker{})
			ref.fail(ev.from, self)
		} else {
			rx.ingestItems(ev.items)
			ref.items(ev.items)
		}
		if rx.decided && len(ref.newVals)+len(ref.newFails) > before {
			tailNews++
		}
		checkState(t, where, rx, ref)
		if !rx.decided && rx.complete() {
			rx.decided = true // relay-only from here on: ingest carries on unchanged
		}
		if ev.flush {
			checkFlush(t, where+" flush", rx, ref)
		}
	}
	if !rx.decided {
		t.Fatalf("stream of %d payloads ended undecided", len(events))
	}
	return tailNews
}

func checkState(t *testing.T, where string, rx *reactor, ref *refIngest) {
	t.Helper()
	n := ref.g.N()
	row := make([]uint64, (n+63)/64)
	for q := range ref.delivered {
		row[q>>6] |= 1 << (q & 63)
	}
	got := make([]uint64, len(rx.delivered.blocks))
	for w, b := range rx.delivered.blocks {
		got[w] = b.got
	}
	if !slices.Equal(got, row) {
		t.Fatalf("%s: delivered row %x, want %x", where, got, row)
	}
	if rx.delivered.Count() != len(ref.delivered) {
		t.Fatalf("%s: Count = %d, want %d", where, rx.delivered.Count(), len(ref.delivered))
	}
	if low := ref.minOrigin(); rx.minOrigin != low || rx.minValue != rx.proposals[low] {
		t.Fatalf("%s: candidate %d (%q), want %d", where, rx.minOrigin, rx.minValue, low)
	}
	if len(rx.fails) != len(ref.crashed) {
		t.Fatalf("%s: %d processes known crashed, want %d", where, len(rx.fails), len(ref.crashed))
	}
	for f := range ref.crashed {
		c := rx.fails[f]
		if c == nil {
			t.Fatalf("%s: process %d not known crashed", where, f)
		}
		for k, s := range ref.g.Succ(f) {
			if c.has(k) != ref.fails[[2]model.ProcID{f, s}] {
				t.Fatalf("%s: FAIL(%d,%d) held = %v, want %v", where, f, s, c.has(k), !c.has(k))
			}
		}
	}
	if got, want := rx.complete(), ref.complete(); got != want {
		t.Fatalf("%s: complete = %v, want %v", where, got, want)
	}
}

func checkFlush(t *testing.T, where string, rx *reactor, ref *refIngest) {
	t.Helper()
	items := rx.takeOutbox()
	if (items == nil) != (len(ref.newVals)+len(ref.newFails) == 0) {
		t.Fatalf("%s: outbox of %d items, want news %d values + %d FAILs", where, len(items), len(ref.newVals), len(ref.newFails))
	}
	if len(items) != cap(items) {
		t.Fatalf("%s: outbox of %d items in a slice of capacity %d, want it exactly sized", where, len(items), cap(items))
	}
	vals, blocks := map[uint32]bool{}, map[uint32]bool{}
	var fails []item
	for i, it := range items {
		if it.Word == failWord {
			fails = append(fails, it)
			continue
		}
		if len(fails) > 0 {
			t.Fatalf("%s: item %d is a VAL after a FAIL", where, i)
		}
		if blocks[it.Word] || it.mask() == 0 {
			t.Fatalf("%s: item %d: block %d repeated or empty (mask %x)", where, i, it.Word, it.mask())
		}
		blocks[it.Word] = true
		for mask := it.mask(); mask != 0; mask &= mask - 1 {
			vals[it.Word<<6+uint32(bits.TrailingZeros64(mask))] = true
		}
	}
	if len(vals) != len(ref.newVals) {
		t.Fatalf("%s: forwarded %d origins, want %d", where, len(vals), len(ref.newVals))
	}
	for q := range ref.newVals {
		if !vals[q] {
			t.Fatalf("%s: origin %d arrived new but was not forwarded", where, q)
		}
	}
	byCert := func(a, b item) int { return cmp.Or(cmp.Compare(a.Lo, b.Lo), cmp.Compare(a.Hi, b.Hi)) }
	want := slices.SortedFunc(slices.Values(ref.newFails), byCert)
	if slices.SortFunc(fails, byCert); !slices.Equal(fails, want) {
		t.Fatalf("%s: forwarded FAILs %v, want %v", where, fails, want)
	}
	clear(ref.newVals)
	ref.newFails = ref.newFails[:0]
}
