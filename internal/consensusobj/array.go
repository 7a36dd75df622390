package consensusobj

import (
	"cmp"
	"slices"

	"allforone/internal/model"
)

// Array is the per-cluster unbounded array of consensus objects
// CONS_x[r, ph] used by Algorithms 2 and 3 (paper §III-B, §IV). A slot is
// created on its first Propose, so every process of the cluster that
// proposes on the same (round, phase) reaches the same object.
//
// The objects live by value in one slice sorted by (round, phase). Cluster
// members walk the positions in order, so a new slot almost always lands
// past the last one and a Propose almost always hits the last slot; any
// other position is a binary search.
//
// Array also counts propose invocations: the number of consensus-object
// accesses per phase is the scalability currency of the paper's comparison
// with the m&m model (§III-C), so it is measured, not estimated.
type Array struct {
	slots   []slot
	invokes int64
}

// slot is one object of an Array and its position.
type slot struct {
	round, phase int
	obj          CAS
}

// compare orders s against position (round, phase).
func (s slot) compare(round, phase int) int {
	if c := cmp.Compare(s.round, round); c != 0 {
		return c
	}
	return cmp.Compare(s.phase, phase)
}

// arraySlots is how many slots each array of NewArrays holds before it grows
// on its own: a local-coin run's first two rounds.
const arraySlots = 4

// NewArrays returns m empty object arrays — one per cluster, or per memory —
// carved from one allocation of arrays and one of slots.
func NewArrays(m int) []Array {
	arrays := make([]Array, m)
	slots := make([]slot, m*arraySlots)
	for x := range arrays {
		arrays[x].slots = slots[x*arraySlots : x*arraySlots : (x+1)*arraySlots]
	}
	return arrays
}

// Propose submits v to the object CONS[round, phase], creating it on first
// access, and returns the object's decision. Algorithm 3 uses a single
// phase; by convention it passes phase 1.
func (a *Array) Propose(round, phase int, v model.Value) model.Value {
	a.invokes++
	i := len(a.slots) - 1
	if i < 0 || a.slots[i].compare(round, phase) != 0 {
		var found bool
		i, found = slices.BinarySearchFunc(a.slots, slot{round: round, phase: phase}, func(s, k slot) int {
			return s.compare(k.round, k.phase)
		})
		if !found {
			a.slots = slices.Insert(a.slots, i, slot{round: round, phase: phase})
		}
	}
	return a.slots[i].obj.Propose(v)
}

// Invocations returns the total number of Propose calls through this array.
func (a *Array) Invocations() int64 { return a.invokes }

// Allocations returns how many distinct slots were created.
func (a *Array) Allocations() int64 { return int64(len(a.slots)) }

// Reset empties the array for another run: no slot, no invocation, and the
// slot storage kept.
func (a *Array) Reset() {
	a.slots = a.slots[:0]
	a.invokes = 0
}
