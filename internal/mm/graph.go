// Package mm implements the m&m (messages-and-memories) communication
// model of Aguilera et al. (PODC 2018), the comparator discussed in the
// paper's §III-C and appendix.
//
// In the uniform m&m model, shared memories are induced by an undirected
// graph G over the processes: each process p_i owns a "p_i-centered" memory
// shared by S_i = {p_i} ∪ neighbors(p_i). There are n memories; p_i can
// access α_i + 1 of them (α_i = its degree). Unlike the hybrid model's
// partition into clusters, the S_i overlap, so the "one for all" accounting
// is unsound here — the structural weakness the paper points out.
//
// The consensus algorithm runs on core's round machine (core.RunVariant):
// Ben-Or's rounds with a memory step before each exchange in place of the
// cluster consensus.
package mm

import (
	"errors"
	"fmt"
	"sort"

	"allforone/internal/model"
)

// Graph is an undirected simple graph over processes 0 … n-1.
// It is immutable after construction.
type Graph struct {
	n   int
	adj [][]model.ProcID // sorted neighbor lists
}

// Errors returned by graph constructors.
var (
	ErrBadGraph = errors.New("mm: invalid graph")
)

// NewGraph builds a graph from an edge list (0-based endpoints).
// Self-loops and duplicate edges are rejected.
func NewGraph(n int, edges [][2]int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: need at least one process", ErrBadGraph)
	}
	seen := make(map[[2]int]bool, len(edges))
	adj := make([][]model.ProcID, n)
	for _, e := range edges {
		a, b := e[0], e[1]
		if a < 0 || a >= n || b < 0 || b >= n {
			return nil, fmt.Errorf("%w: edge (%d,%d) out of range [0,%d)", ErrBadGraph, a, b, n)
		}
		if a == b {
			return nil, fmt.Errorf("%w: self-loop at %d", ErrBadGraph, a)
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			return nil, fmt.Errorf("%w: duplicate edge (%d,%d)", ErrBadGraph, a, b)
		}
		seen[[2]int{a, b}] = true
		adj[a] = append(adj[a], model.ProcID(b))
		adj[b] = append(adj[b], model.ProcID(a))
	}
	for i := range adj {
		sort.Slice(adj[i], func(x, y int) bool { return adj[i][x] < adj[i][y] })
	}
	return &Graph{n: n, adj: adj}, nil
}

// MustGraph is NewGraph for known-good literals; it panics on invalid
// input and is intended for tests and examples.
func MustGraph(n int, edges [][2]int) *Graph {
	g, err := NewGraph(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// EdgeList returns the graph's undirected edge list (each edge once, with
// endpoints ordered a < b) — the inverse of NewGraph, used to express a
// graph as a Scenario topology.
func (g *Graph) EdgeList() [][2]int {
	var out [][2]int
	for a, ns := range g.adj {
		for _, b := range ns {
			if a < int(b) {
				out = append(out, [2]int{a, int(b)})
			}
		}
	}
	return out
}

// Fig2 is the example graph of the paper's Figure 2 / appendix: 5
// processes with edges p1–p2, p2–p3, p3–p4, p3–p5, p4–p5, yielding memory
// domains S1={p1,p2}, S2={p1,p2,p3}, S3={p2,p3,p4,p5}, S4=S5={p3,p4,p5}.
func Fig2() *Graph {
	return MustGraph(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {2, 4}, {3, 4}})
}

// Ring returns the cycle graph C_n (n ≥ 3).
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("%w: ring needs at least 3 processes", ErrBadGraph)
	}
	edges := make([][2]int, n)
	for i := 0; i < n; i++ {
		edges[i] = [2]int{i, (i + 1) % n}
	}
	return NewGraph(n, edges)
}

// Star returns the star graph: process 0 is the hub.
func Star(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: star needs at least 2 processes", ErrBadGraph)
	}
	edges := make([][2]int, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return NewGraph(n, edges)
}

// N returns the number of processes.
func (g *Graph) N() int { return g.n }

// Neighbors returns p's sorted neighbor list (shared; treat as read-only).
func (g *Graph) Neighbors(p model.ProcID) []model.ProcID { return g.adj[p] }

// Degree returns α_p, the number of neighbors of p.
func (g *Graph) Degree(p model.ProcID) int { return len(g.adj[p]) }

// Domain returns the memory domain S_p = {p} ∪ neighbors(p), sorted.
func (g *Graph) Domain(p model.ProcID) []model.ProcID {
	out := make([]model.ProcID, 0, len(g.adj[p])+1)
	out = append(out, g.adj[p]...)
	out = append(out, p)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Edges returns the number of edges.
func (g *Graph) Edges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// InvocationsPerPhase returns α_p + 1, the number of consensus objects
// process p accesses in each phase of a round in the m&m model (paper
// §III-C). The hybrid model's counterpart is the constant 1.
func (g *Graph) InvocationsPerPhase(p model.ProcID) int { return g.Degree(p) + 1 }

// ObjectsPerPhase returns the number of distinct consensus objects touched
// system-wide per phase: n in the m&m model, versus m in the hybrid model.
func (g *Graph) ObjectsPerPhase() int { return g.n }

// String renders the graph's memory domains in the appendix's style.
func (g *Graph) String() string {
	s := ""
	for i := 0; i < g.n; i++ {
		if i > 0 {
			s += " "
		}
		set := model.NewProcSet(g.n)
		for _, q := range g.Domain(model.ProcID(i)) {
			set.Add(q)
		}
		s += fmt.Sprintf("S%d=%s", i+1, set)
	}
	return s
}
