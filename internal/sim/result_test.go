package sim

import (
	"testing"

	"allforone/internal/model"
)

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

func TestDecidedAndCounts(t *testing.T) {
	t.Parallel()
	r := &Result{Procs: []ProcResult{
		{Status: StatusDecided, Decision: model.Zero, Round: 1},
		{Status: StatusCrashed, Round: 1},
		{Status: StatusDecided, Decision: model.Zero, Round: 4},
		{Status: StatusBlocked, Round: 2},
	}}
	val, count, ok := r.Decided()
	if !ok || count != 2 || val != model.Zero {
		t.Errorf("Decided = %v,%d,%v", val, count, ok)
	}
	if r.AllLiveDecided() {
		t.Error("AllLiveDecided should fail with a blocked process")
	}
	if got := r.CountStatus(StatusCrashed); got != 1 {
		t.Errorf("CountStatus(crashed) = %d, want 1", got)
	}
	if got := r.CountStatus(StatusDecided); got != 2 {
		t.Errorf("CountStatus(decided) = %d, want 2", got)
	}
	if got := r.MaxDecisionRound(); got != 4 {
		t.Errorf("MaxDecisionRound = %d, want 4", got)
	}
	rounds := r.DecisionRounds()
	if len(rounds) != 2 || rounds[0] != 1 || rounds[1] != 4 {
		t.Errorf("DecisionRounds = %v, want [1 4]", rounds)
	}
}

func TestAgreementAndValidityChecks(t *testing.T) {
	t.Parallel()
	ok := &Result{Procs: []ProcResult{
		{Status: StatusDecided, Decision: model.One},
		{Status: StatusDecided, Decision: model.One},
	}}
	if err := ok.CheckAgreement(); err != nil {
		t.Errorf("CheckAgreement: %v", err)
	}
	if err := ok.CheckValidity([]model.Value{model.Zero, model.One}); err != nil {
		t.Errorf("CheckValidity: %v", err)
	}

	disagree := &Result{Procs: []ProcResult{
		{Status: StatusDecided, Decision: model.One},
		{Status: StatusDecided, Decision: model.Zero},
	}}
	if err := disagree.CheckAgreement(); err == nil {
		t.Error("CheckAgreement missed disagreement")
	}
	botFirst := &Result{Procs: []ProcResult{
		{Status: StatusDecided, Decision: model.Bot},
		{Status: StatusDecided, Decision: model.One},
	}}
	if err := botFirst.CheckAgreement(); err == nil {
		t.Error("CheckAgreement missed a decided ⊥ followed by a decided 1")
	}

	invalid := &Result{Procs: []ProcResult{{Status: StatusDecided, Decision: model.One}}}
	if err := invalid.CheckValidity([]model.Value{model.Zero}); err == nil {
		t.Error("CheckValidity missed invalid decision")
	}

	empty := &Result{}
	if err := empty.CheckAgreement(); err != nil {
		t.Errorf("empty CheckAgreement: %v", err)
	}
	if !empty.AllLiveDecided() {
		t.Error("empty result should count as all-live-decided")
	}
	if got := empty.MaxDecisionRound(); got != 0 {
		t.Errorf("empty MaxDecisionRound = %d, want 0", got)
	}
	if got := empty.DecisionRounds(); got != nil {
		t.Errorf("empty DecisionRounds = %v, want nil", got)
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
