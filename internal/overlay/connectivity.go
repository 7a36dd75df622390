package overlay

import "allforone/internal/model"

// Exact vertex connectivity of the overlay digraph, computed the
// classical way (Even's algorithm): κ(G) is the minimum, over pairs of
// non-adjacent vertices (s, t), of the maximum number of internally
// vertex-disjoint s→t paths, which is a unit-capacity max-flow on the
// split graph (each vertex v becomes v_in → v_out with capacity 1; each
// edge u→v becomes u_out → v_in with unlimited capacity). Trying every
// pair is wasteful: since κ ≤ δ (the minimum degree), at least one of any
// δ+1 distinct vertices lies outside every minimum vertex cut, so probing
// flows from and to δ+1 fixed sources suffices.
//
// Cost is O(δ² · n · E) — fine for the spec-validation and test sizes
// this is meant for (n up to a few thousand), not for n=100k runs, which
// rely on the analytic family bounds (Graph.Kappa) instead.

// VertexConnectivity computes the exact vertex connectivity κ of the
// graph: the minimum number of process removals that disconnect some
// live pair (equivalently, the protocol family tolerates up to κ−1
// crashes while keeping every live pair connected). Returns n−1 for a
// complete digraph (no non-adjacent pair exists) and 0 when the graph is
// not strongly connected.
func (g *Graph) VertexConnectivity() int {
	if !g.StronglyConnected() {
		return 0
	}
	delta := g.minDegree()
	best := g.n - 1 // complete-digraph ceiling
	f := newFlowNet(g)
	sources := delta + 1
	if sources > g.n {
		sources = g.n
	}
	for s := 0; s < sources && best > 0; s++ {
		adjOut := g.adjacencySet(dirSucc, s)
		adjIn := g.adjacencySet(dirPred, s)
		for t := 0; t < g.n; t++ {
			if t == s {
				continue
			}
			if !adjOut[t] {
				if c := f.maxFlow(s, t); c < best {
					best = c
				}
			}
			if !adjIn[t] {
				if c := f.maxFlow(t, s); c < best {
					best = c
				}
			}
			if best == 0 {
				break
			}
		}
	}
	return best
}

// minDegree returns the minimum of all in- and out-degrees (κ ≤ δ).
func (g *Graph) minDegree() int {
	min := g.n
	for i := 0; i < g.n; i++ {
		if d := int(g.succOffs[i+1] - g.succOffs[i]); d < min {
			min = d
		}
		if d := int(g.predOffs[i+1] - g.predOffs[i]); d < min {
			min = d
		}
	}
	return min
}

// direction selector for adjacencySet (avoids closures in the hot pair
// loop).
type adjDir int

const (
	dirSucc adjDir = iota
	dirPred
)

// adjacencySet returns the out- (or in-) neighborhood of v as a dense
// boolean set.
func (g *Graph) adjacencySet(dir adjDir, v int) []bool {
	set := make([]bool, g.n)
	var row []model.ProcID
	if dir == dirSucc {
		row = g.Succ(model.ProcID(v))
	} else {
		row = g.Pred(model.ProcID(v))
	}
	for _, t := range row {
		set[t] = true
	}
	return set
}

// flowNet is the reusable split-graph max-flow network: 2n nodes
// (v_in = 2v, v_out = 2v+1), a static edge list with paired reverse
// edges, and per-(s,t) capacity resets.
type flowNet struct {
	n        int
	incident [][]int32 // per split-node: indices into edges
	to       []int32   // edge target split-node
	cap      []int16   // residual capacity (0, 1, or "inf" as a big value)
	base     []int16   // initial capacities, for reset
	// BFS scratch
	parentEdge []int32
	queue      []int32
}

const infCap = int16(1) << 14 // > any unit flow this net can carry per edge probe

func newFlowNet(g *Graph) *flowNet {
	f := &flowNet{n: g.n}
	nn := 2 * g.n
	f.incident = make([][]int32, nn)
	addEdge := func(u, v int32, c int16) {
		f.incident[u] = append(f.incident[u], int32(len(f.to)))
		f.to = append(f.to, v)
		f.base = append(f.base, c)
		f.incident[v] = append(f.incident[v], int32(len(f.to)))
		f.to = append(f.to, u)
		f.base = append(f.base, 0)
	}
	for v := 0; v < g.n; v++ {
		addEdge(int32(2*v), int32(2*v+1), 1) // v_in → v_out, capacity 1
	}
	for u := 0; u < g.n; u++ {
		for _, v := range g.Succ(model.ProcID(u)) {
			addEdge(int32(2*u+1), int32(2*v), infCap) // u_out → v_in
		}
	}
	f.cap = make([]int16, len(f.base))
	f.parentEdge = make([]int32, nn)
	f.queue = make([]int32, 0, nn)
	return f
}

// maxFlow computes the max flow from s_out to t_in — the number of
// internally vertex-disjoint s→t paths for non-adjacent s, t.
func (f *flowNet) maxFlow(s, t int) int {
	copy(f.cap, f.base)
	// The endpoints' own splitters must not constrain the flow.
	f.cap[2*s] = infCap // s's in→out edge is edge index 2s (edges added in vertex order)
	f.cap[2*t] = infCap
	src, sink := int32(2*s+1), int32(2*t)
	flow := 0
	for f.augment(src, sink) {
		flow++
	}
	return flow
}

// augment finds one unit augmenting path src→sink by BFS and applies it.
func (f *flowNet) augment(src, sink int32) bool {
	for i := range f.parentEdge {
		f.parentEdge[i] = -1
	}
	f.parentEdge[src] = -2
	f.queue = f.queue[:0]
	f.queue = append(f.queue, src)
	for qi := 0; qi < len(f.queue); qi++ {
		u := f.queue[qi]
		for _, e := range f.incident[u] {
			v := f.to[e]
			if f.cap[e] > 0 && f.parentEdge[v] == -1 {
				f.parentEdge[v] = e
				if v == sink {
					// Walk back applying the unit of flow.
					for x := sink; x != src; {
						pe := f.parentEdge[x]
						f.cap[pe]--
						f.cap[pe^1]++ // paired reverse edge
						x = f.to[pe^1]
					}
					return true
				}
				f.queue = append(f.queue, v)
			}
		}
	}
	return false
}
