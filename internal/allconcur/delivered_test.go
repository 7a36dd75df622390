package allconcur

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"unsafe"
)

// insertionOrders returns the id sequences the delivered set is driven
// with: each covers part or all of [0, n) and repeats ids, as the d
// flooded copies of every origin do.
func insertionOrders(n int) map[string][]uint32 {
	asc := make([]uint32, 0, 2*n)
	for q := 0; q < n; q++ {
		asc = append(asc, uint32(q), uint32(q/2)) // every id, with stale repeats
	}
	desc := make([]uint32, len(asc))
	for i, q := range asc {
		desc[len(asc)-1-i] = q
	}
	rng := rand.New(rand.NewPCG(uint64(n), 15))
	shuffled := append([]uint32(nil), asc...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	// Clusters of up to 40 consecutive ids at random offsets, every seventh
	// id never inserted: what a crash run looks like, holes that stay.
	var clustered []uint32
	for c := 0; c < n/8+2; c++ {
		base := rng.IntN(n)
		for q := base; q < min(n, base+1+rng.IntN(40)); q++ {
			if q%7 != 3 {
				clustered = append(clustered, uint32(q))
			}
		}
	}
	return map[string][]uint32{"ascending": asc, "descending": desc, "shuffled": shuffled, "clustered": clustered}
}

// TestDeliveredSetAgainstReference drives the bitmap and a map side by
// side and compares, after every insertion, Add's verdict, Count, Contains
// and two EachMissing walks — one accepting every gap, one rejecting
// part-way — against the map's gaps in ascending order. n=63/64/65 sit on
// the word boundary (n=63 and n=65 leave padding bits in the last word,
// which no walk may visit); the ascending order fills whole words in front
// of later walks, so they resume from an advanced watermark.
func TestDeliveredSetAgainstReference(t *testing.T) {
	sizes := []int{1, 63, 64, 65, 1000, 2048}
	if testing.Short() {
		sizes = sizes[:5] // the race pass: n=1000 is multi-word with padding already
	}
	for _, n := range sizes {
		for name, order := range insertionOrders(n) {
			t.Run(fmt.Sprintf("n=%d/%s", n, name), func(t *testing.T) {
				set := deliveredSet{bits: make([]uint64, (n+63)/64)}
				ref := map[uint32]bool{}
				for step, q := range order {
					if got, want := set.Add(q), !ref[q]; got != want {
						t.Fatalf("step %d: Add(%d) = %v, want %v", step, q, got, want)
					}
					ref[q] = true
					if set.Count() != len(ref) {
						t.Fatalf("step %d: Count = %d, want %d", step, set.Count(), len(ref))
					}
					var missing []uint32
					for id := uint32(0); id < uint32(n); id++ {
						in := ref[id]
						if set.Contains(id) != in {
							t.Fatalf("step %d: Contains(%d) = %v, want %v", step, id, !in, in)
						}
						if !in {
							missing = append(missing, id)
						}
					}
					var visited []uint32
					all := set.EachMissing(uint32(n), func(id uint32) bool {
						visited = append(visited, id)
						return true
					})
					if !all || !reflect.DeepEqual(visited, missing) {
						t.Fatalf("step %d: EachMissing = %v visiting %v, want true visiting %v", step, all, visited, missing)
					}
					if len(missing) == 0 {
						continue
					}
					// Reject the k-th gap: the walk visits exactly the first k+1.
					k := step % len(missing)
					visited = visited[:0]
					all = set.EachMissing(uint32(n), func(id uint32) bool {
						visited = append(visited, id)
						return len(visited) <= k
					})
					if all || !reflect.DeepEqual(visited, missing[:k+1]) {
						t.Fatalf("step %d: rejecting gap %d: EachMissing = %v visiting %v, want false visiting %v",
							step, k, all, visited, missing[:k+1])
					}
				}
			})
		}
	}
}

// TestItemIsSmallAndPointerFree pins the news-item format: the collector
// skips the outbox arrays only while item holds no pointer, and the memory
// traffic of a run is item copies.
func TestItemIsSmallAndPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(item{}); size > 12 {
		t.Fatalf("item is %d bytes, want ≤ 12", size)
	}
	typ := reflect.TypeOf(item{})
	for i := 0; i < typ.NumField(); i++ {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.Uint8, reflect.Uint32:
		default:
			t.Fatalf("item.%s is a %v: only fixed-size integers keep item pointer-free", typ.Field(i).Name, k)
		}
	}
}
