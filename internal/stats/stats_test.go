package stats

import (
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	t.Parallel()
	if _, err := Mean(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("Mean(nil) error = %v", err)
	}
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || !almostEqual(m, 2.5) {
		t.Errorf("Mean = %v, %v; want 2.5", m, err)
	}
}

func TestStdDev(t *testing.T) {
	t.Parallel()
	if _, err := StdDev(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("StdDev(nil) error = %v", err)
	}
	if sd, _ := StdDev([]float64{7}); sd != 0 {
		t.Errorf("StdDev(single) = %v, want 0", sd)
	}
	sd, err := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil || !almostEqual(sd, math.Sqrt(32.0/7.0)) {
		t.Errorf("StdDev = %v, %v", sd, err)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	t.Parallel()
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{25, 20},
		{50, 35},
		{100, 50},
		{75, 40},
		{90, 46},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil || !almostEqual(got, tt.want) {
			t.Errorf("Percentile(%v) = %v, %v; want %v", tt.p, got, err, tt.want)
		}
	}
	med, _ := Median([]float64{1, 3})
	if !almostEqual(med, 2) {
		t.Errorf("Median = %v, want 2", med)
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("Percentile(-1) should fail")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) should fail")
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmptySample) {
		t.Errorf("Percentile(nil) error = %v", err)
	}
	one, _ := Percentile([]float64{9}, 75)
	if one != 9 {
		t.Errorf("Percentile(single) = %v, want 9", one)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	t.Parallel()
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestMinMax(t *testing.T) {
	t.Parallel()
	min, max, err := MinMax([]float64{3, -1, 7, 0})
	if err != nil || min != -1 || max != 7 {
		t.Errorf("MinMax = %v,%v,%v", min, max, err)
	}
	if _, _, err := MinMax(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("MinMax(nil) error = %v", err)
	}
}

func TestDescribe(t *testing.T) {
	t.Parallel()
	s, err := Describe([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || !almostEqual(s.Mean, 3) || !almostEqual(s.Median, 3) ||
		s.Min != 1 || s.Max != 5 {
		t.Errorf("Describe = %+v", s)
	}
	if _, err := Describe(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("Describe(nil) error = %v", err)
	}
}

func TestInts(t *testing.T) {
	t.Parallel()
	got := Ints([]int{1, 2, 3})
	if len(got) != 3 || got[2] != 3.0 {
		t.Errorf("Ints = %v", got)
	}
	got64 := Ints([]int64{5})
	if got64[0] != 5.0 {
		t.Errorf("Ints64 = %v", got64)
	}
}

// Property: mean lies within [min, max]; percentiles are monotone in p.
func TestStatisticsProperties(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(8, 1))
	f := func(seed uint64) bool {
		n := 1 + int(seed%50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		m, _ := Mean(xs)
		min, max, _ := MinMax(xs)
		if m < min-1e-9 || m > max+1e-9 {
			return false
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v, _ := Percentile(xs, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTableRender(t *testing.T) {
	t.Parallel()
	tb := NewTable("E0: demo", "config", "rounds", "msgs")
	tb.AddRow("fig1-left", "2", "98")
	tb.AddRowf("fig1-right", 3.14159, 200)
	tb.AddNote("seeds 0..%d", 9)
	out := tb.String()

	for _, want := range []string{"E0: demo", "config", "rounds", "fig1-left", "3.14", "note: seeds 0..9"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d, want 2", tb.Rows())
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title, header, rule, 2 rows, note.
	if len(lines) != 6 {
		t.Errorf("line count = %d, want 6:\n%s", len(lines), out)
	}
}

func TestFormatFloat(t *testing.T) {
	t.Parallel()
	tests := []struct {
		v    float64
		want string
	}{
		{3, "3"},
		{-2, "-2"},
		{1234.56, "1234.6"},
		{3.14159, "3.14"},
		{0.1234, "0.123"},
		{0, "0"},
	}
	for _, tt := range tests {
		if got := FormatFloat(tt.v); got != tt.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestTableRaggedRows(t *testing.T) {
	t.Parallel()
	tb := NewTable("", "a", "b")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "dropped")
	out := tb.String()
	if strings.Contains(out, "dropped") {
		t.Error("extra cell should be dropped")
	}
	if !strings.Contains(out, "only-one") {
		t.Error("short row lost")
	}
}

// Ints converts an integer sample to float64 for the statistics functions.
func Ints[T ~int | ~int32 | ~int64](xs []T) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
