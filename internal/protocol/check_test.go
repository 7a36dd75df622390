package protocol_test

import (
	"errors"
	"strings"
	"testing"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/protocol"
	"allforone/internal/sim"
	"allforone/internal/trace"
)

// Check reads only a protocol's Info, so the tests judge hand-built
// Outcomes against two real entries: benor, flat and one-for-all (its
// clusters are its processes), and hybrid, partitioned and traceable.
const (
	checkFlat = "benor"
	checkPart = "hybrid"
)

// outcome builds an Outcome from one letter per process: d0/d1 decided 0/1,
// c crashed, b blocked, f failed.
func outcome(procs ...string) *protocol.Outcome {
	out := &protocol.Outcome{}
	for _, p := range procs {
		po := protocol.ProcOutcome{Round: 1}
		switch p[0] {
		case 'd':
			po.Status, po.Decision = sim.StatusDecided, p[1:]
		case 'c':
			po.Status = sim.StatusCrashed
		case 'b':
			po.Status = sim.StatusBlocked
		case 'f':
			po.Status = sim.StatusFailed
		}
		out.Procs = append(out.Procs, po)
	}
	return out
}

func binary(vs ...model.Value) protocol.Workload { return protocol.Workload{Binary: vs} }

// crashAtStart crashes the listed processes at the top of round 1.
func crashAtStart(t *testing.T, n int, ps ...model.ProcID) *failures.Schedule {
	t.Helper()
	s := failures.NewSchedule(n)
	for _, p := range ps {
		if err := s.Set(p, failures.Crash{At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// rawViolation is a native result that reports one violation of its own.
type rawViolation struct{}

func (rawViolation) Violations(*protocol.Scenario) []protocol.Violation {
	return []protocol.Violation{{Property: "raw", Err: errors.New("planted")}}
}

// TestCheck feeds Check one Outcome per property and demands exactly the
// violations listed — and none from a correct run of each shape.
func TestCheck(t *testing.T) {
	t.Parallel()
	two := binary(model.Zero, model.One, model.Zero)
	ones := binary(model.One, model.One, model.One)
	quiesced := func(o *protocol.Outcome) *protocol.Outcome { o.Quiesced = true; return o }
	cases := []struct {
		name string
		sc   protocol.Scenario
		out  *protocol.Outcome
		want []string
	}{
		{"correct", protocol.Scenario{Protocol: checkFlat, Workload: two}, outcome("d1", "d1", "d1"), nil},
		{"agreement", protocol.Scenario{Protocol: checkFlat, Workload: two}, outcome("d0", "d1", "d1"), []string{"agreement"}},
		{"validity", protocol.Scenario{Protocol: checkFlat, Workload: ones}, outcome("d0", "d0", "d0"), []string{"validity"}},
		{"decided bot", protocol.Scenario{Protocol: checkFlat, Workload: two}, outcome("d⊥", "d⊥", "d⊥"), []string{"validity"}},
		{"failed process", protocol.Scenario{Protocol: checkFlat, Workload: two}, outcome("d1", "f", "d1"), []string{"invariant", "verdict", "liveness"}},
		{"unset deadline", protocol.Scenario{Protocol: checkFlat, Workload: two},
			func() *protocol.Outcome { o := outcome("b", "b", "b"); o.DeadlineExceeded = true; return o }(), []string{"verdict"}},
		{"set step bound", protocol.Scenario{Protocol: checkFlat, Workload: two, Bounds: protocol.Bounds{MaxSteps: 5}},
			func() *protocol.Outcome { o := outcome("b", "b", "b"); o.StepsExceeded = true; return o }(), nil},
		{"inconclusive", protocol.Scenario{Protocol: checkFlat, Workload: two}, outcome("d1", "b", "d1"), []string{"verdict", "liveness"}},
		{"crash-free block", protocol.Scenario{Protocol: checkFlat, Workload: two}, quiesced(outcome("b", "b", "b")), []string{"liveness"}},
		{"round cap", protocol.Scenario{Protocol: checkFlat, Workload: two, Bounds: protocol.Bounds{MaxRounds: 1}}, outcome("b", "b", "b"), nil},
		{"past the round cap", protocol.Scenario{Protocol: checkFlat, Workload: two, Bounds: protocol.Bounds{MaxRounds: 1}},
			func() *protocol.Outcome { o := outcome("b", "b", "b"); o.Procs[1].Round = 2; return o }(), []string{"round-cap"}},
		{"live majority blocks", protocol.Scenario{Protocol: checkFlat, Workload: two, Faults: crashAtStart(t, 3, 0)},
			quiesced(outcome("c", "b", "b")), []string{"liveness"}},
		{"dead majority blocks", protocol.Scenario{Protocol: checkFlat, Workload: two, Faults: crashAtStart(t, 3, 0, 1)},
			quiesced(outcome("c", "c", "b")), nil},
		{"all crashed", protocol.Scenario{Protocol: checkFlat, Workload: two, Faults: crashAtStart(t, 3, 0, 1, 2)},
			outcome("c", "c", "c"), nil},
		{"dead majority decides", protocol.Scenario{Protocol: checkFlat, Workload: two, Faults: crashAtStart(t, 3, 0, 1)},
			quiesced(outcome("c", "c", "d1")), []string{"liveness"}},
		{"raw", protocol.Scenario{Protocol: checkFlat, Workload: two},
			func() *protocol.Outcome { o := outcome("d1", "d1", "d1"); o.Raw = rawViolation{}; return o }(), []string{"raw"}},
		{"unknown protocol", protocol.Scenario{Protocol: "nope"}, outcome("d1"), []string{"scenario"}},
	}
	for _, tc := range cases {
		if got := properties(protocol.Check(tc.sc, tc.out)); got != strings.Join(tc.want, ",") {
			t.Errorf("%s: violations %q, want %q", tc.name, got, strings.Join(tc.want, ","))
		}
	}
}

// TestCheckOneForAll: on Fig1Right, a lone survivor of the 4-process
// cluster covers a majority and must decide; a lone survivor of the
// 2-process cluster does not, and — its peers dead from the start — must
// not decide.
func TestCheckOneForAll(t *testing.T) {
	t.Parallel()
	part := model.Fig1Right() // {p1} {p2..p5} {p6,p7}
	w := binary(model.One, model.One, model.One, model.One, model.One, model.One, model.One)
	allBut := func(survivor model.ProcID) *failures.Schedule {
		var dead []model.ProcID
		for p := model.ProcID(0); p < 7; p++ {
			if p != survivor {
				dead = append(dead, p)
			}
		}
		return crashAtStart(t, 7, dead...)
	}
	run := func(survivor model.ProcID, status string) *protocol.Outcome {
		procs := []string{"c", "c", "c", "c", "c", "c", "c"}
		procs[survivor] = status
		o := outcome(procs...)
		o.Quiesced = status == "b"
		return o
	}
	sc := func(survivor model.ProcID) protocol.Scenario {
		return protocol.Scenario{Protocol: checkPart, Topology: protocol.Topology{Partition: part}, Workload: w, Faults: allBut(survivor)}
	}
	for _, tc := range []struct {
		survivor model.ProcID
		status   string
		want     string
	}{
		{2, "d1", ""}, {2, "b", "liveness"},
		{6, "b", ""}, {6, "d1", "liveness"},
	} {
		if got := properties(protocol.Check(sc(tc.survivor), run(tc.survivor, tc.status))); got != tc.want {
			t.Errorf("survivor p%d %s: violations %q, want %q", tc.survivor+1, tc.status, got, tc.want)
		}
	}
}

// TestCheckTrace holds a recorded history to cluster uniformity,
// crash-stop, and decide events that match the Outcome.
func TestCheckTrace(t *testing.T) {
	t.Parallel()
	part := model.Fig1Left() // P[1] = {p1, p2, p3}
	w := binary(model.Zero, model.One, model.Zero, model.One, model.Zero, model.One, model.Zero)
	decided := func(v string) *protocol.Outcome {
		return outcome("d"+v, "d"+v, "d"+v, "d"+v, "d"+v, "d"+v, "d"+v)
	}
	for _, tc := range []struct {
		name string
		log  func(l *trace.Log)
		out  *protocol.Outcome
		want string
	}{
		{"consistent", func(l *trace.Log) {
			l.Append(0, trace.KindBroadcast, 1, 1, model.One)
			l.Append(1, trace.KindBroadcast, 1, 1, model.One)
			l.Append(3, trace.KindBroadcast, 1, 1, model.Zero) // another cluster may differ
			l.Append(0, trace.KindDecide, 1, 2, model.One)
		}, decided("1"), ""},
		{"split cluster", func(l *trace.Log) {
			l.Append(0, trace.KindBroadcast, 1, 1, model.One)
			l.Append(2, trace.KindBroadcast, 1, 1, model.Zero)
		}, decided("1"), "cluster-uniformity"},
		{"step after crash", func(l *trace.Log) {
			l.Append(0, trace.KindCrash, 1, 1, model.Bot)
			l.Append(0, trace.KindRoundStart, 2, 1, model.Bot)
		}, outcome("c", "d1", "d1", "d1", "d1", "d1", "d1"), "crash-stop"},
		{"decide mismatch", func(l *trace.Log) {
			l.Append(4, trace.KindDecide, 1, 2, model.Zero)
		}, decided("1"), "trace"},
	} {
		sc := protocol.Scenario{Protocol: checkPart, Topology: protocol.Topology{Partition: part}, Workload: w, Trace: trace.New()}
		tc.log(sc.Trace)
		if got := properties(protocol.Check(sc, tc.out)); got != tc.want {
			t.Errorf("%s: violations %q, want %q", tc.name, got, tc.want)
		}
	}
}

// properties joins the violated properties' names.
func properties(vs []protocol.Violation) string {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Property
	}
	return strings.Join(names, ",")
}
