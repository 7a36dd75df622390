// Package consensusobj provides the intra-cluster consensus objects of the
// hybrid communication model. The paper (§II-A) assumes each cluster memory
// MEM_x is enriched with an operation of infinite consensus number, so a
// deterministic wait-free consensus object is available to the cluster's
// processes despite any number of crashes.
//
// The package offers the compare&swap consensus object CAS and the
// round-indexed object arrays CONS_x[r, ph] used by Algorithms 2 and 3.
// Each operation is one atomic step because the scheduler's single
// execution token runs every process body: no two processes are ever inside
// an operation at once, so the objects are plain data.
package consensusobj

import "allforone/internal/model"

// CAS is a consensus object built from a single compare&swap register: the
// first CAS(undecided → v) wins and fixes the decision. This is exactly
// the construction the paper alludes to when it equips MEM_x with
// compare&swap.
//
// The zero value is undecided and ready for use. Undecided is a flag, not a
// reserved value, because every value is proposable: Algorithm 2's
// CONS_x[r,2] legitimately receives ⊥ (Bot), and a later Propose(v) must
// not overwrite a decided Propose(⊥) (see TestProposeBotFirstDecidesBot).
type CAS struct {
	v   model.Value
	set bool
}

// NewCAS returns a fresh, undecided consensus object.
func NewCAS() *CAS { return &CAS{} }

// Propose submits v and returns the object's decided value: the proposal of
// the first Propose to take effect. Every invocation on one object returns
// the same value (agreement), and that value was proposed (validity).
func (c *CAS) Propose(v model.Value) model.Value {
	if !c.set {
		c.v, c.set = v, true
	}
	return c.v
}

// Decided returns the decided value and whether any propose happened yet.
func (c *CAS) Decided() (model.Value, bool) {
	return c.v, c.set
}
