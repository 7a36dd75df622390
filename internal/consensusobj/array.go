package consensusobj

import "allforone/internal/model"

// Array is the per-cluster unbounded array of consensus objects
// CONS_x[r, ph] used by Algorithms 2 and 3 (paper §III-B, §IV). A slot is
// allocated on its first Propose, so every process of the cluster that
// proposes on the same (round, phase) reaches the same object.
//
// Array also counts propose invocations: the number of consensus-object
// accesses per phase is the scalability currency of the paper's comparison
// with the m&m model (§III-C), so it is measured, not estimated.
type Array struct {
	slots   map[slot]*CAS
	invokes int64
}

// slot indexes one object of an Array.
type slot struct{ round, phase int }

// NewArray returns an empty object array.
func NewArray() *Array {
	return &Array{slots: make(map[slot]*CAS)}
}

// Propose submits v to the object CONS[round, phase], allocating it on
// first access, and returns the object's decision. Algorithm 3 uses a
// single phase; by convention it passes phase 1.
func (a *Array) Propose(round, phase int, v model.Value) model.Value {
	a.invokes++
	k := slot{round, phase}
	c := a.slots[k]
	if c == nil {
		c = &CAS{}
		a.slots[k] = c
	}
	return c.Propose(v)
}

// Invocations returns the total number of Propose calls through this array.
func (a *Array) Invocations() int64 { return a.invokes }

// Allocations returns how many distinct slots were allocated.
func (a *Array) Allocations() int64 { return int64(len(a.slots)) }
