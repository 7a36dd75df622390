package mm

import (
	"errors"
	"fmt"
	"testing"

	"allforone/internal/model"
)

func TestNewGraphValidation(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name  string
		n     int
		edges [][2]int
	}{
		{"zero processes", 0, nil},
		{"out of range", 3, [][2]int{{0, 3}}},
		{"negative", 3, [][2]int{{-1, 0}}},
		{"self loop", 3, [][2]int{{1, 1}}},
		{"duplicate", 3, [][2]int{{0, 1}, {1, 0}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if _, err := NewGraph(tt.n, tt.edges); !errors.Is(err, ErrBadGraph) {
				t.Errorf("error = %v, want ErrBadGraph", err)
			}
		})
	}
}

func TestMustGraphPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("MustGraph did not panic on invalid input")
		}
	}()
	MustGraph(1, [][2]int{{0, 0}})
}

// Fig2 must reproduce the appendix's memory domains exactly.
func TestFig2Domains(t *testing.T) {
	t.Parallel()
	g := Fig2()
	if g.N() != 5 || g.Edges() != 5 {
		t.Fatalf("N=%d Edges=%d, want 5 and 5", g.N(), g.Edges())
	}
	wantDomains := map[model.ProcID][]model.ProcID{
		0: {0, 1},       // S1={p1,p2}
		1: {0, 1, 2},    // S2={p1,p2,p3}
		2: {1, 2, 3, 4}, // S3={p2,p3,p4,p5}
		3: {2, 3, 4},    // S4={p3,p4,p5}
		4: {2, 3, 4},    // S5={p3,p4,p5}
	}
	for p, want := range wantDomains {
		got := g.Domain(p)
		if len(got) != len(want) {
			t.Fatalf("Domain(%v) = %v, want %v", p, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Domain(%v) = %v, want %v", p, got, want)
			}
		}
	}
	wantStr := "S1={p1,p2} S2={p1,p2,p3} S3={p2,p3,p4,p5} S4={p3,p4,p5} S5={p3,p4,p5}"
	if got := g.String(); got != wantStr {
		t.Errorf("String = %q, want %q", got, wantStr)
	}
}

// The §III-C cost claim: p_i accesses α_i + 1 objects per phase; n objects
// are touched system-wide.
func TestFig2CostModel(t *testing.T) {
	t.Parallel()
	g := Fig2()
	wantInvocations := map[model.ProcID]int{0: 2, 1: 3, 2: 4, 3: 3, 4: 3}
	for p, want := range wantInvocations {
		if got := g.InvocationsPerPhase(p); got != want {
			t.Errorf("InvocationsPerPhase(%v) = %d, want %d", p, got, want)
		}
	}
	if got := g.ObjectsPerPhase(); got != 5 {
		t.Errorf("ObjectsPerPhase = %d, want 5 (n)", got)
	}
}

func TestGraphGenerators(t *testing.T) {
	t.Parallel()
	k4, err := Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	if k4.Edges() != 6 {
		t.Errorf("K4 edges = %d, want 6", k4.Edges())
	}
	for p := 0; p < 4; p++ {
		if k4.Degree(model.ProcID(p)) != 3 {
			t.Errorf("K4 degree(%d) = %d, want 3", p, k4.Degree(model.ProcID(p)))
		}
	}

	c5, err := Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	if c5.Edges() != 5 {
		t.Errorf("C5 edges = %d, want 5", c5.Edges())
	}
	for p := 0; p < 5; p++ {
		if c5.Degree(model.ProcID(p)) != 2 {
			t.Errorf("C5 degree(%d) = %d, want 2", p, c5.Degree(model.ProcID(p)))
		}
	}

	s6, err := Star(6)
	if err != nil {
		t.Fatal(err)
	}
	if s6.Degree(0) != 5 {
		t.Errorf("star hub degree = %d, want 5", s6.Degree(0))
	}
	for p := 1; p < 6; p++ {
		if s6.Degree(model.ProcID(p)) != 1 {
			t.Errorf("star leaf degree = %d, want 1", s6.Degree(model.ProcID(p)))
		}
	}

	if _, err := Complete(0); err == nil {
		t.Error("Complete(0) should fail")
	}
	if _, err := Ring(2); err == nil {
		t.Error("Ring(2) should fail")
	}
	if _, err := Star(1); err == nil {
		t.Error("Star(1) should fail")
	}
}

// Complete returns the complete graph K_n (every memory shared by all).
func Complete(n int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: need at least one process", ErrBadGraph)
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return NewGraph(n, edges)
}
