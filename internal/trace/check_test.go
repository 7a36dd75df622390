package trace_test

import (
	"strings"
	"testing"

	"allforone/internal/model"
	"allforone/internal/protocol"
	_ "allforone/internal/protocols"
	"allforone/internal/sim"
	"allforone/internal/trace"
)

// A recorded history is judged by protocol.Check; these tests hold a flat
// binary protocol's traces to its decide and crash-stop properties.
const checkProto = "benor"

// outcome builds an Outcome from one letter per process: d0/d1 decided 0/1,
// c crashed.
func outcome(procs ...string) *protocol.Outcome {
	out := &protocol.Outcome{}
	for _, p := range procs {
		po := protocol.ProcOutcome{Round: 1, Status: sim.StatusCrashed}
		if p[0] == 'd' {
			po.Status, po.Decision = sim.StatusDecided, p[1:]
		}
		out.Procs = append(out.Procs, po)
	}
	return out
}

// check runs protocol.Check on a trace and returns the violated properties.
func check(l *trace.Log, props []model.Value, out *protocol.Outcome) string {
	sc := protocol.Scenario{Protocol: checkProto, Workload: protocol.Workload{Binary: props}, Trace: l}
	var names []string
	for _, v := range protocol.Check(sc, out) {
		names = append(names, v.Property)
	}
	return strings.Join(names, ",")
}

func TestCheckDecisions(t *testing.T) {
	t.Parallel()
	split := []model.Value{model.Zero, model.One}

	if got := check(trace.New(), split, outcome("d1", "d1")); got != "" {
		t.Errorf("empty log flagged: %q", got)
	}

	ok := trace.New()
	ok.Append(0, trace.KindPropose, 0, 0, model.Zero)
	ok.Append(1, trace.KindPropose, 0, 0, model.One)
	ok.Append(0, trace.KindDecide, 2, 2, model.One)
	ok.Append(1, trace.KindDecide, 3, 2, model.One)
	if got := check(ok, split, outcome("d1", "d1")); got != "" {
		t.Errorf("valid decisions flagged: %q", got)
	}

	disagree := trace.New()
	disagree.Append(0, trace.KindPropose, 0, 0, model.Zero)
	disagree.Append(1, trace.KindPropose, 0, 0, model.One)
	disagree.Append(0, trace.KindDecide, 1, 2, model.Zero)
	disagree.Append(1, trace.KindDecide, 1, 2, model.One)
	if got := check(disagree, split, outcome("d0", "d1")); got != "agreement" {
		t.Errorf("disagreement: violations %q, want %q", got, "agreement")
	}

	invalid := trace.New()
	invalid.Append(0, trace.KindPropose, 0, 0, model.Zero)
	invalid.Append(1, trace.KindPropose, 0, 0, model.Zero)
	invalid.Append(0, trace.KindDecide, 1, 2, model.One)
	invalid.Append(1, trace.KindDecide, 1, 2, model.One)
	zeros := []model.Value{model.Zero, model.Zero}
	if got := check(invalid, zeros, outcome("d1", "d1")); got != "validity" {
		t.Errorf("invalid decision: violations %q, want %q", got, "validity")
	}

	mismatch := trace.New()
	mismatch.Append(0, trace.KindDecide, 1, 2, model.Zero)
	if got := check(mismatch, split, outcome("d1", "d1")); got != "trace" {
		t.Errorf("decide event unlike the Outcome: violations %q, want %q", got, "trace")
	}
}

func TestCheckNoStepsAfterCrash(t *testing.T) {
	t.Parallel()
	ones := []model.Value{model.One, model.One, model.One}
	out := outcome("c", "d1", "d1")

	ok := trace.New()
	ok.Append(0, trace.KindRoundStart, 1, 1, model.Bot)
	ok.Append(0, trace.KindCrash, 1, 1, model.Bot)
	ok.Append(1, trace.KindDecide, 1, 2, model.One) // another process may continue
	if got := check(ok, ones, out); got != "" {
		t.Errorf("valid crash log flagged: %q", got)
	}

	bad := trace.New()
	bad.Append(0, trace.KindCrash, 1, 1, model.Bot)
	bad.Append(0, trace.KindDecide, 2, 2, model.One)
	if got := check(bad, ones, out); got != "crash-stop" {
		t.Errorf("zombie step: violations %q, want %q", got, "crash-stop")
	}
}
