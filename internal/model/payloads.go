package model

// PayloadRounds is how many rounds a Payloads table holds boxed: every
// round the paper-sized trials reach (their deepest run ends in round 25),
// with room to spare.
const PayloadRounds = 64

// Payloads is a read-only table of boxed phase-message payloads, indexed by
// round, phase and value (⊥, 0, 1). Every process that broadcasts
// (r, ph, v) sends an equal payload, so a protocol builds its table once, at
// package initialisation, and a broadcast takes its interface value from
// the table instead of boxing one more copy. Past the table's end Get boxes
// afresh; the value is equal either way.
//
// A Payloads is immutable after NewPayloads, so every run may share it.
type Payloads[M any] struct {
	phases int
	build  func(round, phase int, v Value) M
	boxes  []any // index ((round-1)·phases + phase-1)·3 + v+1
}

// NewPayloads returns the table of build(r, ph, v) for rounds 1 …
// PayloadRounds, phases 1 … phases and v ∈ {⊥, 0, 1}.
func NewPayloads[M any](phases int, build func(round, phase int, v Value) M) *Payloads[M] {
	t := &Payloads[M]{phases: phases, build: build, boxes: make([]any, 0, PayloadRounds*phases*3)}
	for r := 1; r <= PayloadRounds; r++ {
		for ph := 1; ph <= phases; ph++ {
			for _, v := range [...]Value{Bot, Zero, One} {
				t.boxes = append(t.boxes, build(r, ph, v))
			}
		}
	}
	return t
}

// Get returns build(round, phase, v) as an interface value: the table's box
// when the triple lies inside it, allocating nothing, and a new one past its
// end.
func (t *Payloads[M]) Get(round, phase int, v Value) any {
	if round < 1 || round > PayloadRounds || phase < 1 || phase > t.phases || !v.Valid() {
		return t.build(round, phase, v)
	}
	return t.boxes[((round-1)*t.phases+phase-1)*3+int(v+1)]
}
