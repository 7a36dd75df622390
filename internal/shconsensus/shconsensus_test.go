package shconsensus

import (
	"errors"
	"testing"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// outcome folds res into the uniform Outcome whose checks these tests read.
func outcome(res *sim.Result) *protocol.Outcome { return protocol.BinaryOutcome(ProtocolName, res) }

// rendered returns vs as an Outcome renders decisions.
func rendered(vs []model.Value) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	if _, err := Run(Config{N: 0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("N=0 error = %v", err)
	}
	if _, err := Run(Config{N: 2, Proposals: []model.Value{model.One}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("short proposals error = %v", err)
	}
	if _, err := Run(Config{N: 1, Proposals: []model.Value{model.Bot}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("non-binary proposal error = %v", err)
	}
}

func TestAgreementValidityTermination(t *testing.T) {
	t.Parallel()
	for trial := 0; trial < 50; trial++ {
		const n = 16
		props := make([]model.Value, n)
		for i := range props {
			props[i] = model.Value(int8((i + trial) % 2))
		}
		res, err := Run(Config{N: n, Proposals: props})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := outcome(res).CheckAgreement(); err != nil {
			t.Fatal(err)
		}
		if err := outcome(res).CheckValidity(rendered(props)); err != nil {
			t.Fatal(err)
		}
		if !outcome(res).AllLiveDecided() {
			t.Fatalf("not all decided: %+v", res.Procs)
		}
		if res.Metrics.ConsInvocations != n {
			t.Errorf("ConsInvocations = %d, want %d (one per process)", res.Metrics.ConsInvocations, n)
		}
		if res.Metrics.MsgsSent != 0 {
			t.Errorf("MsgsSent = %d, want 0 (pure shared memory)", res.Metrics.MsgsSent)
		}
	}
}

// Any number of crashes is tolerated: a single survivor still decides
// (wait-freedom).
func TestWaitFreedomUnderCrashes(t *testing.T) {
	t.Parallel()
	const n = 8
	sched, err := failures.CrashAllExcept(n,
		failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}, 5)
	if err != nil {
		t.Fatal(err)
	}
	props := make([]model.Value, n)
	for i := range props {
		props[i] = model.One
	}
	res, err := Run(Config{N: n, Proposals: props, Crashes: sched})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Procs[5].Status != sim.StatusDecided || res.Procs[5].Decision != model.One {
		t.Errorf("survivor outcome = %+v", res.Procs[5])
	}
	if got := outcome(res).CountStatus(sim.StatusCrashed); got != n-1 {
		t.Errorf("crashed = %d, want %d", got, n-1)
	}
	if res.Metrics.ConsInvocations != 1 {
		t.Errorf("ConsInvocations = %d, want 1", res.Metrics.ConsInvocations)
	}
}
