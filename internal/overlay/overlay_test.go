package overlay

import (
	"reflect"
	"testing"

	"allforone/internal/model"
)

func build(t *testing.T, spec Spec, n int, seed int64) *Graph {
	t.Helper()
	g, err := spec.Build(n, seed)
	if err != nil {
		t.Fatalf("Build(%+v, n=%d): %v", spec, n, err)
	}
	return g
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		n    int
	}{
		{"unknown kind", Spec{}, 8},
		{"n too small", Spec{Kind: KindCirculant}, 1},
		{"degree too large", Spec{Kind: KindCirculant, Degree: 8}, 8},
		{"negative degree", Spec{Kind: KindRandom, Degree: -1}, 8},
		{"debruijn degree 1", Spec{Kind: KindDeBruijn, Degree: 1}, 8},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(tc.n); err == nil {
			t.Errorf("%s: Validate accepted %+v for n=%d", tc.name, tc.spec, tc.n)
		}
		if _, err := tc.spec.Build(tc.n, 1); err == nil {
			t.Errorf("%s: Build accepted %+v for n=%d", tc.name, tc.spec, tc.n)
		}
	}
}

func TestCirculantShape(t *testing.T) {
	g := build(t, Spec{Kind: KindCirculant, Degree: 3}, 7, 0)
	want := []model.ProcID{6, 0, 1}
	if got := g.Succ(5); !reflect.DeepEqual(got, want) {
		t.Fatalf("Succ(5) = %v, want %v", got, want)
	}
	if got := g.Pred(0); !reflect.DeepEqual(got, []model.ProcID{4, 5, 6}) {
		t.Fatalf("Pred(0) = %v", got)
	}
	if g.Edges() != 21 {
		t.Fatalf("Edges() = %d, want 21", g.Edges())
	}
	if !g.StronglyConnected() {
		t.Fatal("circulant not strongly connected")
	}
}

func TestDeBruijnShape(t *testing.T) {
	g := build(t, Spec{Kind: KindDeBruijn, Degree: 2}, 8, 0)
	// succ(3) = {6, 7}; succ(0) = {1} (self-loop 0 dropped).
	if got := g.Succ(3); !reflect.DeepEqual(got, []model.ProcID{6, 7}) {
		t.Fatalf("Succ(3) = %v", got)
	}
	if got := g.Succ(0); !reflect.DeepEqual(got, []model.ProcID{1}) {
		t.Fatalf("Succ(0) = %v (self-loop must be dropped)", got)
	}
	if !g.StronglyConnected() {
		t.Fatal("de Bruijn not strongly connected")
	}
}

// TestPredsMatchSuccs: every edge appears exactly once in both tables.
func TestPredsMatchSuccs(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: KindDeBruijn, Degree: 3},
		{Kind: KindCirculant, Degree: 4},
		{Kind: KindRandom, Degree: 4, Seed: 9},
	} {
		g := build(t, spec, 33, 7)
		fwd := map[[2]model.ProcID]int{}
		for i := 0; i < g.N(); i++ {
			for _, s := range g.Succ(model.ProcID(i)) {
				if s == model.ProcID(i) {
					t.Fatalf("%v: self-loop at %d", spec.Kind, i)
				}
				fwd[[2]model.ProcID{model.ProcID(i), s}]++
			}
		}
		for i := 0; i < g.N(); i++ {
			for _, p := range g.Pred(model.ProcID(i)) {
				fwd[[2]model.ProcID{p, model.ProcID(i)}]--
			}
		}
		for e, c := range fwd {
			if c != 0 {
				t.Fatalf("%v: edge %v appears %+d times more in succ than pred", spec.Kind, e, c)
			}
		}
	}
}

// TestRandomDeterministicAndSeedSensitive: same seeds rebuild the identical
// view; different run seeds give a different view.
func TestRandomDeterministicAndSeedSensitive(t *testing.T) {
	spec := Spec{Kind: KindRandom, Degree: 3, Seed: 5}
	a := build(t, spec, 64, 42)
	b := build(t, spec, 64, 42)
	if !reflect.DeepEqual(a.succ, b.succ) {
		t.Fatal("same (spec, n, seed) built different random views")
	}
	c := build(t, spec, 64, 43)
	if reflect.DeepEqual(a.succ, c.succ) {
		t.Fatal("different run seeds built the identical random view")
	}
}

// TestVertexConnectivityMatchesAnalyticBounds cross-checks the exact
// max-flow computation against the families' known κ values.
func TestVertexConnectivityMatchesAnalyticBounds(t *testing.T) {
	cases := []struct {
		spec Spec
		n    int
		want int // exact κ (circulant) or minimum acceptable (de Bruijn: ≥ d−1)
	}{
		{Spec{Kind: KindCirculant, Degree: 2}, 11, 2},
		{Spec{Kind: KindCirculant, Degree: 3}, 16, 3},
		{Spec{Kind: KindCirculant, Degree: 4}, 21, 4},
	}
	for _, tc := range cases {
		g := build(t, tc.spec, tc.n, 0)
		if got := g.VertexConnectivity(); got != tc.want {
			t.Errorf("%v n=%d d=%d: κ = %d, want %d", tc.spec.Kind, tc.n, tc.spec.Degree, got, tc.want)
		}
		if g.Kappa() != tc.want {
			t.Errorf("%v: Kappa() = %d, want %d", tc.spec.Kind, g.Kappa(), tc.want)
		}
	}
	for _, d := range []int{2, 3, 4} {
		g := build(t, Spec{Kind: KindDeBruijn, Degree: d}, 17, 0)
		kappa := g.VertexConnectivity()
		if kappa < d-1 {
			t.Errorf("debruijn n=17 d=%d: κ = %d < d−1 = %d (Kappa bound violated)", d, kappa, d-1)
		}
		if g.Kappa() != d-1 {
			t.Errorf("debruijn: Kappa() = %d, want %d", g.Kappa(), d-1)
		}
	}
	// Sanity: a ring (circulant d=1) has κ = 1 — one removal cuts it.
	ring := build(t, Spec{Kind: KindCirculant, Degree: 1}, 9, 0)
	if got := ring.VertexConnectivity(); got != 1 {
		t.Errorf("ring: κ = %d, want 1", got)
	}
}

// TestConnectivitySurvivesCrashSubsets spot-checks the meaning of κ: for
// the diff-matrix overlay (circulant n=7 d=3, κ=3), removing ANY 2
// processes leaves the survivors strongly connected.
func TestConnectivitySurvivesCrashSubsets(t *testing.T) {
	g := build(t, Spec{Kind: KindCirculant, Degree: 3}, 7, 0)
	for a := 0; a < 7; a++ {
		for b := a + 1; b < 7; b++ {
			dead := make([]bool, 7)
			dead[a], dead[b] = true, true
			if !g.StronglyConnectedWithout(dead) {
				t.Fatalf("removing {%d,%d} disconnected the survivors (κ=%d graph)", a, b, g.Kappa())
			}
		}
	}
}

func TestDiameterBoundCoversBFSDepth(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: KindDeBruijn, Degree: 3},
		{Kind: KindCirculant, Degree: 3},
		{Kind: KindRandom, Degree: 4, Seed: 3},
	} {
		g := build(t, spec, 50, 11)
		bound := g.DiameterBound()
		if ecc := eccentricity(g, 0); ecc > bound {
			t.Errorf("%v: eccentricity(0) = %d exceeds DiameterBound %d", spec.Kind, ecc, bound)
		}
	}
}

// eccentricity returns the longest shortest path from v (test helper).
func eccentricity(g *Graph, v model.ProcID) int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[v] = 0
	queue := []model.ProcID{v}
	max := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, t := range g.Succ(u) {
			if dist[t] < 0 {
				dist[t] = dist[u] + 1
				if dist[t] > max {
					max = dist[t]
				}
				queue = append(queue, t)
			}
		}
	}
	return max
}

// TestRandomViewsAlwaysStronglyConnected: the embedded Hamiltonian cycle
// makes every random view strongly connected by construction, at any seed.
func TestRandomViewsAlwaysStronglyConnected(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := build(t, Spec{Kind: KindRandom, Degree: 2, Seed: seed}, 40, seed*31+7)
		if !g.StronglyConnected() {
			t.Fatalf("random view seed=%d not strongly connected", seed)
		}
		if g.VertexConnectivity() < 1 {
			t.Fatalf("random view seed=%d: κ < 1", seed)
		}
	}
}

func TestDefaultDegreeShape(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{2, 1}, {7, 3}, {64, 3}, {1024, 5}, {10000, 7}, {100000, 9},
	} {
		if got := DefaultDegree(tc.n); got != tc.want {
			t.Errorf("DefaultDegree(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindDeBruijn, KindCirculant, KindRandom} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("mesh"); err == nil {
		t.Error("ParseKind accepted an unknown kind")
	}
}
