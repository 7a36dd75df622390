package sim

import "testing"

func TestStatusString(t *testing.T) {
	t.Parallel()
	tests := []struct {
		s    Status
		want string
	}{
		{StatusDecided, "decided"},
		{StatusCrashed, "crashed"},
		{StatusBlocked, "blocked"},
		{StatusFailed, "failed"},
		{Status(42), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", tt.s, got, tt.want)
		}
	}
}

// TestDefaultMaxStepsHint pins the topology-derived step budget: quadratic
// or linear above the crossover, the historical constant below it and for
// protocols that report no topology.
func TestDefaultMaxStepsHint(t *testing.T) {
	t.Parallel()
	tests := []struct {
		n    int
		c    StepComplexity
		want int64
	}{
		{-5, StepsQuadratic, DefaultMaxSteps},
		{0, StepsQuadratic, DefaultMaxSteps},
		{7, StepsQuadratic, DefaultMaxSteps},
		{591, StepsQuadratic, DefaultMaxSteps},   // 24·591² < 8<<20: still floored
		{592, StepsQuadratic, 24 * 592 * 592},    // first n above the floor
		{1024, StepsQuadratic, 24 * 1024 * 1024}, // ≈25.2M: the n that motivated the change
		{8192, StepsQuadratic, 24 * 8192 * 8192}, // ≈1.6G: no more MaxSteps:-1 in benchmarks
		{-5, StepsLinear, DefaultMaxSteps},
		{64, StepsLinear, DefaultMaxSteps},
		{1024, StepsLinear, DefaultMaxSteps},   // 8192·1024 = 8<<20: the floor itself
		{1025, StepsLinear, 8192 * 1025},       // first n above the floor
		{100_000, StepsLinear, 8192 * 100_000}, // the sparse-overlay scale
	}
	for _, tt := range tests {
		if got := DefaultMaxStepsHint(tt.n, tt.c); got != tt.want {
			t.Errorf("DefaultMaxStepsHint(%d, %d) = %d, want %d", tt.n, tt.c, got, tt.want)
		}
	}
}
