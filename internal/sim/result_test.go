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

// TestDefaultMaxStepsFor pins the topology-derived step budget: quadratic
// above the crossover, the historical constant below it and for protocols
// that report no topology.
func TestDefaultMaxStepsFor(t *testing.T) {
	t.Parallel()
	tests := []struct {
		n    int
		want int64
	}{
		{-5, DefaultMaxSteps},
		{0, DefaultMaxSteps},
		{7, DefaultMaxSteps},
		{591, DefaultMaxSteps},   // 24·591² < 8<<20: still floored
		{592, 24 * 592 * 592},    // first n above the floor
		{1024, 24 * 1024 * 1024}, // ≈25.2M: the n that motivated the change
		{8192, 24 * 8192 * 8192}, // ≈1.6G: no more MaxSteps:-1 in benchmarks
	}
	for _, tt := range tests {
		if got := DefaultMaxStepsFor(tt.n); got != tt.want {
			t.Errorf("DefaultMaxStepsFor(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}
