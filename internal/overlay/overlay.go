// Package overlay builds the sparse communication graphs of the
// sub-quadratic protocol family (internal/gossip, internal/allconcur):
// deterministic, seeded d-regular digraphs whose fault tolerance comes
// from vertex connectivity, exactly as in AllConcur (Poke et al.,
// HPDC 2017), plus random peer-sampling views for gossip dissemination.
//
// Construction is a pure function of (Spec, n, seed): the same overlay is
// rebuilt identically by every process of a run, by a replay of the run,
// and by the failure-tracking rule of allconcur (which must reason about
// OTHER processes' successor sets). Nothing here is protocol-specific —
// the package imports only internal/model, so internal/protocol can embed
// a Spec in Topology without a dependency cycle.
//
// The three families:
//
//   - KindDeBruijn: the generalized de Bruijn digraph GB(n, d) with
//     succ(i) = { (d·i + j) mod n : 0 ≤ j < d }. Diameter ≤ ⌈log_d n⌉,
//     vertex connectivity ≥ d−1 — the sparsest known family with both
//     logarithmic diameter and near-optimal connectivity, and one of the
//     two families evaluated for AllConcur.
//   - KindCirculant: the circulant digraph C(n; 1..d) with
//     succ(i) = { (i + j) mod n : 1 ≤ j ≤ d } — the GS(n,d) shape of the
//     AllConcur paper's binomial-graph family, with vertex connectivity
//     exactly d (removing i+1 … i+d isolates i) and diameter ⌈(n−1)/d⌉.
//   - KindRandom: seeded random peer-sampling views — a seeded
//     Hamiltonian cycle (strong connectivity by construction) plus d−1
//     uniform random out-neighbors per process. Worst-case connectivity
//     is only the cycle's (Kappa reports 1), but the random edges give
//     the O(log n) dissemination behavior gossip protocols exploit.
package overlay

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"allforone/internal/model"
)

// Kind selects an overlay family.
type Kind int

// The overlay families.
const (
	// KindDeBruijn is the generalized de Bruijn digraph GB(n, d).
	KindDeBruijn Kind = iota + 1
	// KindCirculant is the circulant digraph C(n; 1..d).
	KindCirculant
	// KindRandom is a seeded random peer-sampling view.
	KindRandom
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindDeBruijn:
		return "debruijn"
	case KindCirculant:
		return "circulant"
	case KindRandom:
		return "random"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves an overlay-family name as accepted by the CLIs.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "debruijn", "gdb", "db":
		return KindDeBruijn, nil
	case "circulant", "gs", "ring":
		return KindCirculant, nil
	case "random", "views", "sample":
		return KindRandom, nil
	}
	return 0, fmt.Errorf("overlay: unknown kind %q (want debruijn, circulant, or random)", name)
}

// ErrBadSpec reports an invalid overlay specification.
var ErrBadSpec = errors.New("overlay: invalid spec")

// Spec is the declarative description of an overlay, embedded in
// protocol.Topology and validated at Scenario build time. The zero Degree
// means DefaultDegree(n).
type Spec struct {
	// Kind selects the family.
	Kind Kind
	// Degree is the out-degree d; 0 picks DefaultDegree(n).
	Degree int
	// Seed adds spec-level entropy to KindRandom views on top of the
	// run seed (so two random overlays in one scenario suite can differ
	// while each stays deterministic). Ignored by the regular families.
	Seed int64
}

// DefaultDegree is the degree used when Spec.Degree is zero: ~½·log₂ n,
// clamped to at least 3 — sparse enough that msgs/round stays Θ(n·d), with
// the logarithmic growth that keeps de Bruijn diameters flat.
func DefaultDegree(n int) int {
	if n <= 1 {
		return 1
	}
	d := int(math.Ceil(math.Log2(float64(n)) / 2))
	if d < 3 {
		d = 3
	}
	if d > n-1 {
		d = n - 1
	}
	return d
}

// degreeFor resolves the spec's effective degree for n processes.
func (s Spec) degreeFor(n int) int {
	if s.Degree == 0 {
		return DefaultDegree(n)
	}
	return s.Degree
}

// Validate checks the spec against a process count. It is the check the
// Scenario compiler runs (wrapped in ErrBadScenario) before any process
// spawns.
func (s Spec) Validate(n int) error {
	switch s.Kind {
	case KindDeBruijn, KindCirculant, KindRandom:
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadSpec, int(s.Kind))
	}
	if n < 2 {
		return fmt.Errorf("%w: overlay needs at least 2 processes, have %d", ErrBadSpec, n)
	}
	d := s.degreeFor(n)
	if d < 1 || d > n-1 {
		return fmt.Errorf("%w: degree %d out of range [1, %d] for n=%d", ErrBadSpec, d, n-1, n)
	}
	if s.Kind == KindDeBruijn && d < 2 {
		return fmt.Errorf("%w: de Bruijn overlays need degree ≥ 2 (d=1 degenerates to self-loops)", ErrBadSpec)
	}
	return nil
}

// Graph is a built overlay: per-process successor and predecessor lists
// over model.ProcID, flattened into two shared arrays (no per-process
// allocations beyond the offset tables — an n=100k graph is four slices).
type Graph struct {
	n    int
	d    int // nominal degree (actual out-degree may be d−1 where a self-loop was dropped)
	kind Kind

	succ     []model.ProcID // flattened successor lists
	succOffs []int32        // n+1 row offsets into succ
	pred     []model.ProcID // flattened predecessor lists
	predOffs []int32        // n+1 row offsets into pred
}

// Build constructs the overlay for n processes. seed is the run seed
// (Scenario.Seed); only KindRandom consumes it. Regular families drop
// self-loop edges (a process never messages itself), so a handful of
// de Bruijn rows have out-degree d−1.
func (s Spec) Build(n int, seed int64) (*Graph, error) {
	if err := s.Validate(n); err != nil {
		return nil, err
	}
	d := s.degreeFor(n)
	g := &Graph{n: n, d: d, kind: s.Kind}
	g.succ = make([]model.ProcID, 0, n*d)
	g.succOffs = make([]int32, n+1)

	switch s.Kind {
	case KindDeBruijn:
		for i := 0; i < n; i++ {
			base := (d * i) % n
			for j := 0; j < d; j++ {
				t := (base + j) % n
				if t != i {
					g.succ = append(g.succ, model.ProcID(t))
				}
			}
			g.succOffs[i+1] = int32(len(g.succ))
		}
	case KindCirculant:
		for i := 0; i < n; i++ {
			for j := 1; j <= d; j++ {
				g.succ = append(g.succ, model.ProcID((i+j)%n))
			}
			g.succOffs[i+1] = int32(len(g.succ))
		}
	case KindRandom:
		// A bare d-out random digraph leaves vertices with in-degree 0
		// embarrassingly often at gossip-sized degrees (≈ n·(1−d/(n−1))ⁿ
		// expected), so the view embeds a seeded Hamiltonian cycle first —
		// strong connectivity by construction — and fills the remaining
		// d−1 slots with uniform random picks.
		s1 := uint64(seed) ^ 0x7c5d_91a3_0b2e_6f84
		s2 := uint64(s.Seed) ^ 0x1f3a_6c88_d94b_2e07
		rng := rand.New(rand.NewPCG(s1, s2))
		perm := rng.Perm(n)
		cycleNext := make([]int, n)
		for k := 0; k < n; k++ {
			cycleNext[perm[k]] = perm[(k+1)%n]
		}
		pick := make(map[int]struct{}, d)
		for i := 0; i < n; i++ {
			clear(pick)
			pick[cycleNext[i]] = struct{}{}
			for len(pick) < d {
				t := rng.IntN(n)
				if t == i {
					continue
				}
				pick[t] = struct{}{}
			}
			// Deterministic row order: ascending from i+1, independent of
			// map iteration order.
			for t := (i + 1) % n; len(pick) > 0; t = (t + 1) % n {
				if _, ok := pick[t]; ok {
					g.succ = append(g.succ, model.ProcID(t))
					delete(pick, t)
				}
			}
			g.succOffs[i+1] = int32(len(g.succ))
		}
	}

	g.buildPreds()
	return g, nil
}

// buildPreds derives the flattened predecessor lists from the successor
// lists (counting sort by target: deterministic, O(n·d)).
func (g *Graph) buildPreds() {
	counts := make([]int32, g.n+1)
	for _, t := range g.succ {
		counts[int(t)+1]++
	}
	for i := 0; i < g.n; i++ {
		counts[i+1] += counts[i]
	}
	g.predOffs = counts
	g.pred = make([]model.ProcID, len(g.succ))
	fill := make([]int32, g.n)
	for i := 0; i < g.n; i++ {
		for _, t := range g.Succ(model.ProcID(i)) {
			slot := g.predOffs[t] + fill[t]
			g.pred[slot] = model.ProcID(i)
			fill[t]++
		}
	}
}

// N returns the process count.
func (g *Graph) N() int { return g.n }

// Degree returns the nominal out-degree d.
func (g *Graph) Degree() int { return g.d }

// Kind returns the family the graph was built from.
func (g *Graph) Kind() Kind { return g.kind }

// Succ returns process i's successor list (the processes i sends to).
// The slice aliases the graph's storage: callers must not modify it.
func (g *Graph) Succ(i model.ProcID) []model.ProcID {
	return g.succ[g.succOffs[i]:g.succOffs[i+1]]
}

// Pred returns process i's predecessor list (the processes that send to
// i), in ascending order. The slice aliases the graph's storage.
func (g *Graph) Pred(i model.ProcID) []model.ProcID {
	return g.pred[g.predOffs[i]:g.predOffs[i+1]]
}

// Edges returns the total directed edge count.
func (g *Graph) Edges() int { return len(g.succ) }

// Kappa returns the family's analytic vertex-connectivity lower bound:
// d−1 for de Bruijn, d for circulant, 1 for random views (the embedded
// Hamiltonian cycle; the random extra edges add no worst-case guarantee).
// A protocol tolerating f crashes needs Kappa() > f to keep the live
// subgraph strongly connected under EVERY f-subset of crashes; the exact
// value for a concrete graph is VertexConnectivity (which the overlay
// tests cross-check against this bound).
func (g *Graph) Kappa() int {
	switch g.kind {
	case KindDeBruijn:
		return g.d - 1
	case KindCirculant:
		return g.d
	}
	return 1
}

// DiameterBound returns an upper bound on the graph diameter used to
// size dissemination budgets: ⌈log_d n⌉ + 1 for de Bruijn,
// ⌈(n−1)/d⌉ for circulant, and 4·⌈log_d n⌉ + 16 for random views (a
// with-high-probability figure, not a guarantee — random overlays are for
// gossip, whose budget the caller can always raise).
func (g *Graph) DiameterBound() int {
	logd := func() int {
		return int(math.Ceil(math.Log(float64(g.n)) / math.Log(float64(g.d))))
	}
	switch g.kind {
	case KindDeBruijn:
		return logd() + 1
	case KindCirculant:
		return (g.n - 2 + g.d) / g.d // ⌈(n−1)/d⌉
	}
	return 4*logd() + 16
}

// StronglyConnected reports whether every process reaches every other:
// one forward and one backward BFS from process 0, O(n·d).
func (g *Graph) StronglyConnected() bool { return g.StronglyConnectedWithout(nil) }

// StronglyConnectedWithout reports whether the processes not marked dead
// (dead nil or indexed by process) still reach one another through each
// other alone: one forward and one backward BFS from the first live
// process, O(n·d). No live process is trivially connected.
func (g *Graph) StronglyConnectedWithout(dead []bool) bool {
	return g.bfsCovers(g.Succ, dead) && g.bfsCovers(g.Pred, dead)
}

// bfsCovers reports whether a BFS along next() from the first live process,
// through live processes only, reaches every live process.
func (g *Graph) bfsCovers(next func(model.ProcID) []model.ProcID, dead []bool) bool {
	isDead := func(v model.ProcID) bool { return dead != nil && dead[v] }
	seen := make([]bool, g.n)
	queue := make([]model.ProcID, 0, g.n)
	live := 0
	for v := model.ProcID(0); int(v) < g.n; v++ {
		if !isDead(v) {
			if live == 0 {
				seen[v] = true
				queue = append(queue, v)
			}
			live++
		}
	}
	count := len(queue)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, t := range next(v) {
			if !seen[t] && !isDead(t) {
				seen[t] = true
				count++
				queue = append(queue, t)
			}
		}
	}
	return count == live
}
