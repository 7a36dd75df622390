package model

import "testing"

// testMsg stands in for a protocol's phase message.
type testMsg struct {
	Round, Phase int
	Est          Value
}

var testMsgs = NewPayloads(2, func(r, ph int, v Value) testMsg { return testMsg{r, ph, v} })

// Every triple inside the table comes back equal to the message it names,
// and taking it allocates nothing.
func TestPayloadsTableIsEqualAndFree(t *testing.T) {
	for r := 1; r <= PayloadRounds; r++ {
		for ph := 1; ph <= 2; ph++ {
			for _, v := range []Value{Bot, Zero, One} {
				want := testMsg{r, ph, v}
				if got := testMsgs.Get(r, ph, v); got != any(want) {
					t.Fatalf("Get(%d, %d, %v) = %v, want %v", r, ph, v, got, want)
				}
				if allocs := testing.AllocsPerRun(10, func() { sink = testMsgs.Get(r, ph, v) }); allocs != 0 {
					t.Fatalf("Get(%d, %d, %v) allocates %v times, want 0", r, ph, v, allocs)
				}
			}
		}
	}
}

// Past the table's end, and outside its phases and values, Get boxes a new
// payload — still equal to the message it names.
func TestPayloadsPastTheTableBox(t *testing.T) {
	for _, c := range []testMsg{
		{PayloadRounds + 1, 1, One},
		{1000, 2, Bot},
		{0, 1, Zero},
		{3, 3, Zero},
		{3, 1, Value(7)},
	} {
		if got := testMsgs.Get(c.Round, c.Phase, c.Est); got != any(c) {
			t.Fatalf("Get(%d, %d, %v) = %v, want %v", c.Round, c.Phase, c.Est, got, c)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { sink = testMsgs.Get(PayloadRounds+1, 1, One) }); allocs != 1 {
		t.Fatalf("Get past the table allocates %v times, want 1", allocs)
	}
}

// sink keeps the payloads the allocation checks take alive.
var sink any
