package consensusobj

import (
	"testing"

	"allforone/internal/model"
)

// BenchmarkArrayPropose is the CONS_x[r,ph] access of Algorithms 2 and 3:
// 128 slots, each allocated on its first Propose and hit again afterwards.
func BenchmarkArrayPropose(b *testing.B) {
	a := &NewArrays(1)[0]
	for i := 0; i < b.N; i++ {
		_ = a.Propose(i%64, 1+i%2, model.One)
	}
}
