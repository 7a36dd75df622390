package consensusobj

import (
	"math/rand/v2"
	"testing"

	"allforone/internal/model"
)

func TestCASFirstProposalWins(t *testing.T) {
	t.Parallel()
	c := NewCAS()
	if _, ok := c.Decided(); ok {
		t.Fatal("fresh object reports a decision")
	}
	if got := c.Propose(model.One); got != model.One {
		t.Errorf("first Propose(1) = %v, want 1", got)
	}
	if got := c.Propose(model.Zero); got != model.One {
		t.Errorf("second Propose(0) = %v, want 1 (agreement)", got)
	}
	if got, ok := c.Decided(); !ok || got != model.One {
		t.Errorf("Decided = %v,%v, want 1,true", got, ok)
	}
}

// Regression: ⊥ is a legal proposal (Algorithm 2's CONS_x[r,2] receives it)
// and must be decidable like any other value — a later binary proposal must
// NOT overwrite it. An early implementation used Bot as the undecided
// sentinel and broke cluster agreement exactly here.
func TestProposeBotFirstDecidesBot(t *testing.T) {
	t.Parallel()
	c := NewCAS()
	if got := c.Propose(model.Bot); got != model.Bot {
		t.Fatalf("first Propose(⊥) = %v, want ⊥", got)
	}
	if got := c.Propose(model.Zero); got != model.Bot {
		t.Fatalf("second Propose(0) = %v, want ⊥ (agreement on the first proposal)", got)
	}
	if got, ok := c.Decided(); !ok || got != model.Bot {
		t.Errorf("Decided = %v,%v, want ⊥,true", got, ok)
	}
}

func TestCASZeroValueUsable(t *testing.T) {
	t.Parallel()
	var c CAS
	if got := c.Propose(model.Zero); got != model.Zero {
		t.Errorf("zero-value CAS Propose(0) = %v, want 0", got)
	}
}

// TestCASConsensusProperties runs randomized proposal sequences through
// fresh objects and checks agreement (every output equal) and validity (the
// output was proposed).
func TestCASConsensusProperties(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(3, 9))
	values := []model.Value{model.Zero, model.One, model.Bot}
	for trial := 0; trial < 40; trial++ {
		c := NewCAS()
		proposals := make([]model.Value, 32)
		for i := range proposals {
			proposals[i] = values[rng.IntN(len(values))]
		}
		for i, v := range proposals {
			if got := c.Propose(v); got != proposals[0] {
				t.Fatalf("trial %d: proposer %d got %v, want the first proposal %v", trial, i, got, proposals[0])
			}
		}
	}
}

func TestArraySameSlotSameObject(t *testing.T) {
	t.Parallel()
	a := &NewArrays(1)[0]
	// Decide slot (3,1); a later proposal on it sees the decision.
	if got := a.Propose(3, 1, model.One); got != model.One {
		t.Fatalf("Propose = %v, want 1", got)
	}
	if got := a.Propose(3, 1, model.Zero); got != model.One {
		t.Errorf("same slot re-propose = %v, want 1", got)
	}
	// A different phase and a different round are independent slots.
	if got := a.Propose(3, 2, model.Zero); got != model.Zero {
		t.Errorf("different phase = %v, want 0", got)
	}
	if got := a.Propose(4, 1, model.Bot); got != model.Bot {
		t.Errorf("different round = %v, want ⊥", got)
	}
	if got := a.Propose(4, 1, model.One); got != model.Bot {
		t.Errorf("different round re-propose = %v, want ⊥", got)
	}
	if got := a.Allocations(); got != 3 {
		t.Errorf("Allocations = %d, want 3", got)
	}
	if got := a.Invocations(); got != 5 {
		t.Errorf("Invocations = %d, want 5", got)
	}
}

// A Propose on an existing slot is a comparison and a field read: it
// allocates nothing.
func TestArrayProposeAllocs(t *testing.T) {
	a := &NewArrays(1)[0]
	a.Propose(7, 1, model.One)
	if got := testing.AllocsPerRun(100, func() { a.Propose(7, 1, model.Zero) }); got != 0 {
		t.Errorf("Propose on an existing slot allocates %v times, want 0", got)
	}
}

// Slots created out of position order keep one object each: a proposal on
// an earlier position than the latest one finds, or creates, its own slot.
func TestArrayOutOfOrderSlots(t *testing.T) {
	t.Parallel()
	arrays := NewArrays(2)
	a := &arrays[0]
	proposals := []struct {
		round, phase int
		v, want      model.Value
	}{
		{9, 1, model.One, model.One},
		{2, 2, model.Zero, model.Zero},
		{5, 1, model.Bot, model.Bot},
		{9, 1, model.Zero, model.One},
		{2, 2, model.One, model.Zero},
		{2, 1, model.One, model.One},
		{5, 1, model.One, model.Bot},
		{9, 2, model.Zero, model.Zero},
		{1, 1, model.Zero, model.Zero},
	}
	for _, p := range proposals {
		if got := a.Propose(p.round, p.phase, p.v); got != p.want {
			t.Errorf("Propose(%d,%d,%v) = %v, want %v", p.round, p.phase, p.v, got, p.want)
		}
	}
	if got := a.Allocations(); got != 6 {
		t.Errorf("Allocations = %d, want 6", got)
	}
	if got := arrays[1].Allocations(); got != 0 {
		t.Errorf("the other array of the slab holds %d slots, want 0", got)
	}
}

// A Reset array is a new one on the old storage: no slot, no invocation,
// every position undecided again, and the next slots made without
// allocating.
func TestArrayReset(t *testing.T) {
	t.Parallel()
	a := &NewArrays(1)[0]
	a.Propose(1, 1, model.One)
	a.Propose(1, 2, model.Bot)
	a.Reset()
	if a.Invocations() != 0 || a.Allocations() != 0 {
		t.Fatalf("after Reset: %d invocations, %d slots, want none", a.Invocations(), a.Allocations())
	}
	if got := a.Propose(1, 1, model.Zero); got != model.Zero {
		t.Fatalf("Propose on a reset position = %v, want 0: the old decision survived", got)
	}
	a.Reset()
	if got := testing.AllocsPerRun(100, func() {
		a.Reset()
		a.Propose(1, 1, model.One)
		a.Propose(1, 2, model.One)
	}); got != 0 {
		t.Errorf("refilling a reset array allocates %v times, want 0", got)
	}
}
