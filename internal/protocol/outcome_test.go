package protocol_test

import (
	"testing"

	"allforone/internal/model"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// folded returns hand-built process outcomes as a binary Outcome.
func folded(procs ...sim.ProcResult) *protocol.Outcome {
	return protocol.BinaryOutcome(checkFlat, &sim.Result{Procs: procs})
}

func TestDecidedAndCounts(t *testing.T) {
	t.Parallel()
	o := folded(
		sim.ProcResult{Status: sim.StatusDecided, Decision: model.Zero, Round: 1},
		sim.ProcResult{Status: sim.StatusCrashed, Round: 1},
		sim.ProcResult{Status: sim.StatusDecided, Decision: model.Zero, Round: 4},
		sim.ProcResult{Status: sim.StatusBlocked, Round: 2},
	)
	val, count, ok := o.Decided()
	if !ok || count != 2 || val != "0" {
		t.Errorf("Decided = %v,%d,%v", val, count, ok)
	}
	if o.AllLiveDecided() {
		t.Error("AllLiveDecided should fail with a blocked process")
	}
	if got := o.CountStatus(sim.StatusCrashed); got != 1 {
		t.Errorf("CountStatus(crashed) = %d, want 1", got)
	}
	if got := o.CountStatus(sim.StatusDecided); got != 2 {
		t.Errorf("CountStatus(decided) = %d, want 2", got)
	}
	if got := o.MaxDecisionRound(); got != 4 {
		t.Errorf("MaxDecisionRound = %d, want 4", got)
	}
}

func TestAgreementAndValidityChecks(t *testing.T) {
	t.Parallel()
	ok := folded(
		sim.ProcResult{Status: sim.StatusDecided, Decision: model.One},
		sim.ProcResult{Status: sim.StatusDecided, Decision: model.One},
	)
	if err := ok.CheckAgreement(); err != nil {
		t.Errorf("CheckAgreement: %v", err)
	}
	if err := ok.CheckValidity([]string{"0", "1"}); err != nil {
		t.Errorf("CheckValidity: %v", err)
	}

	disagree := folded(
		sim.ProcResult{Status: sim.StatusDecided, Decision: model.One},
		sim.ProcResult{Status: sim.StatusDecided, Decision: model.Zero},
	)
	if err := disagree.CheckAgreement(); err == nil {
		t.Error("CheckAgreement missed disagreement")
	}
	botFirst := folded(
		sim.ProcResult{Status: sim.StatusDecided, Decision: model.Bot},
		sim.ProcResult{Status: sim.StatusDecided, Decision: model.One},
	)
	if err := botFirst.CheckAgreement(); err == nil {
		t.Error("CheckAgreement missed a decided ⊥ followed by a decided 1")
	}

	invalid := folded(sim.ProcResult{Status: sim.StatusDecided, Decision: model.One})
	if err := invalid.CheckValidity([]string{"0"}); err == nil {
		t.Error("CheckValidity missed invalid decision")
	}

	empty := folded()
	if err := empty.CheckAgreement(); err != nil {
		t.Errorf("empty CheckAgreement: %v", err)
	}
	if !empty.AllLiveDecided() {
		t.Error("empty result should count as all-live-decided")
	}
	if got := empty.MaxDecisionRound(); got != 0 {
		t.Errorf("empty MaxDecisionRound = %d, want 0", got)
	}
}
