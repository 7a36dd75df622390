package allforone

import (
	"testing"
	"time"
)

func TestSolveQuickstart(t *testing.T) {
	t.Parallel()
	part := Fig1Right()
	sc := Scenario{
		Protocol:  ProtocolHybrid,
		Topology:  Topology{Partition: part},
		Workload:  Workload{Binary: []Value{One, Zero, Zero, Zero, Zero, One, One}},
		Algorithm: AlgoLocalCoin,
		Seed:      42,
		Bounds:    Bounds{MaxRounds: 1000},
	}
	out, err := Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if vs := Check(sc, out); vs != nil {
		t.Fatal(vs)
	}
	val, count, ok := out.Decided()
	if !ok || count != part.N() {
		t.Fatalf("Decided = %v,%d,%v", val, count, ok)
	}
	// P[2] (4 of 7) proposes 0 — the majority cluster's value wins.
	if val != Zero.String() {
		t.Errorf("decided %v, want 0", val)
	}
}

func TestSolveWithTraceAndSchedule(t *testing.T) {
	t.Parallel()
	part := Fig1Right()
	sched, err := CrashAllExcept(7, CrashPoint{Round: 1, Phase: 1, Stage: StageRoundStart}, 3)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Protocol:  ProtocolHybrid,
		Topology:  Topology{Partition: part},
		Workload:  Workload{Binary: []Value{One, One, One, One, One, One, One}},
		Algorithm: AlgoCommonCoin,
		Seed:      7,
		Bounds:    Bounds{MaxRounds: 100},
		Faults:    sched,
		Trace:     NewTrace(),
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.AllLiveDecided() {
		t.Fatalf("survivor did not decide: %+v", res.Procs)
	}
	if res.CountStatus(StatusCrashed) != 6 {
		t.Errorf("crashed = %d, want 6", res.CountStatus(StatusCrashed))
	}
	if sc.Trace.Len() == 0 {
		t.Fatal("nothing traced")
	}
	if vs := Check(sc, res); vs != nil {
		t.Fatal(vs)
	}
}

func TestBaselineFacades(t *testing.T) {
	t.Parallel()
	// One scenario, four baselines: only Protocol changes (the m&m graph
	// rides along in the topology; the others ignore it).
	sc := Scenario{
		Topology: Topology{N: 5, MMEdges: Fig2Graph().EdgeList()},
		Workload: Workload{Binary: []Value{One, One, One, One, One}},
		Seed:     1,
		Bounds:   Bounds{MaxRounds: 100},
	}
	for _, proto := range []string{ProtocolBenOr, ProtocolMPCoin, ProtocolSharedMem, ProtocolMM} {
		sc.Protocol = proto
		out, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if !out.AllLiveDecided() {
			t.Errorf("%s did not decide", proto)
		}
	}
}

func TestPartitionFacades(t *testing.T) {
	t.Parallel()
	p, err := ParsePartition("1-3/4-5/6-7")
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 7 || p.M() != 3 {
		t.Errorf("ParsePartition: N=%d M=%d", p.N(), p.M())
	}
	if Singletons(4).M() != 4 || SingleCluster(4).M() != 1 {
		t.Error("Singletons/SingleCluster wrong")
	}
	b, err := Blocks(9, 3)
	if err != nil || b.M() != 3 {
		t.Errorf("Blocks: %v, %v", b, err)
	}
	if _, err := NewPartition([][]int{{0}, {1, 2}}); err != nil {
		t.Errorf("NewPartition: %v", err)
	}
	if _, ok := Fig1Right().MajorityCluster(); !ok {
		t.Error("Fig1Right should have a majority cluster")
	}
}

func TestRunExperimentFacade(t *testing.T) {
	t.Parallel()
	rep, err := RunExperiment("E5", ExperimentOptions{Trials: 2, SeedBase: 3})
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if rep.ID != "E5" || rep.Table == nil {
		t.Errorf("report = %+v", rep)
	}
	if len(ExperimentIDs) != 12 {
		t.Errorf("ExperimentIDs = %v, want 12 entries (E1..E10 + E10D + A1)", ExperimentIDs)
	}
	if _, err := RunExperiment("nope", ExperimentOptions{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// crashAllButP3At schedules the timed crash of 6 of Fig1Right's 7 processes:
// everyone but p3, the lone survivor of the majority cluster.
func crashAllButP3At(t testing.TB, at time.Duration) *Schedule {
	t.Helper()
	sched := NewSchedule(7)
	for _, p := range []ProcID{0, 1, 3, 4, 5, 6} {
		if err := sched.SetTimed(p, at); err != nil {
			t.Fatal(err)
		}
	}
	return sched
}

// TestRegisterFacade runs examples/kvstore's register epilogue: p2 writes
// the leader pointer, 6 of 7 replicas crash at 1ms, and the survivor p3 —
// alone in the majority cluster — still reads it at 2ms, then takes over.
func TestRegisterFacade(t *testing.T) {
	t.Parallel()
	part := Fig1Right()
	const survivor = ProcID(2)
	scripts := make([][]ScriptOp, part.N())
	scripts[1] = []ScriptOp{ScriptWrite("leader=p2")}
	scripts[survivor] = []ScriptOp{{After: 2 * time.Millisecond}, ScriptWrite("leader=p3"), ScriptRead()}
	out, err := Run(Scenario{
		Protocol: ProtocolRegister,
		Topology: Topology{Partition: part},
		Workload: Workload{Scripts: scripts},
		Faults:   crashAllButP3At(t, time.Millisecond),
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ops := out.Raw.(*RegisterRunResult).Procs[survivor].Ops
	if len(ops) != 3 || !ops[0].OK || !ops[2].OK {
		t.Fatalf("survivor ops = %+v, want three completed", ops)
	}
	if ops[0].Val != "leader=p2" || ops[2].Val != "leader=p3" {
		t.Errorf("survivor read %q then %q, want leader=p2 then leader=p3", ops[0].Val, ops[2].Val)
	}
}

func TestLogFacade(t *testing.T) {
	t.Parallel()
	part := Fig1Left()
	cmds := make([][]string, part.N())
	for i := range cmds {
		cmds[i] = []string{"set k=" + string(rune('a'+i))}
	}
	out, err := Run(Scenario{
		Protocol: ProtocolSMR,
		Topology: Topology{Partition: part},
		Workload: Workload{Commands: cmds, Slots: 3},
		Seed:     2,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res := out.Raw.(*LogResult)
	if err := res.CheckLogAgreement(); err != nil {
		t.Fatal(err)
	}
	if got := res.CompletedLogs(3); len(got) != part.N() {
		t.Fatalf("completed = %d, want %d", len(got), part.N())
	}
}

func TestMultivaluedFacade(t *testing.T) {
	t.Parallel()
	out, err := Run(Scenario{
		Protocol: ProtocolMultivalued,
		Topology: Topology{Partition: Fig1Left()},
		Workload: Workload{Values: []string{"a", "b", "c", "d", "e", "f", "g"}},
		Seed:     3,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, ok := out.Raw.(*MultivaluedResult); !ok {
		t.Fatalf("Raw = %T, want *MultivaluedResult", out.Raw)
	}
	if !out.AllLiveDecided() {
		t.Fatalf("not all decided: %+v", out.Procs)
	}
	if err := out.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

// TestFinishedRegisterCrashPassesCheck: a register process whose script
// ends before its timed crash strikes is reported StatusDecided, yet the
// crash struck. Here the whole majority cluster finishes its empty script
// and then crashes at 0, so the singletons' operations rightly block, and
// Check must not read the blocked survivors as a liveness violation.
func TestFinishedRegisterCrashPassesCheck(t *testing.T) {
	t.Parallel()
	part, err := NewPartition([][]int{{0, 1, 2, 3}, {4}, {5}, {6}})
	if err != nil {
		t.Fatal(err)
	}
	sched := NewSchedule(7)
	scripts := make([][]ScriptOp, 7)
	for p := ProcID(0); p < 4; p++ {
		if err := sched.SetTimed(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	for p := 4; p < 7; p++ {
		read := ScriptRead()
		read.After = 500 * time.Microsecond
		scripts[p] = []ScriptOp{ScriptWrite(string(rune('a' + p))), read}
	}
	sc := Scenario{
		Protocol: ProtocolRegister,
		Topology: Topology{Partition: part},
		Workload: Workload{Scripts: scripts},
		Profile:  UniformProfile(10*time.Microsecond, 50*time.Microsecond),
		Seed:     3,
		Faults:   sched,
	}
	out, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.CountStatus(StatusBlocked); got != 3 {
		t.Fatalf("%+v, want the three singletons blocked", out.Procs)
	}
	if vs := Check(sc, out); vs != nil {
		t.Error(vs)
	}
}

// TestAllCrashedRunPassesCheck: a run in which every process crashes at the
// top of round 1 takes no step, so it neither decides nor quiesces — and
// Check must accept that, with either coin, instead of reading the missing
// quiescence as a liveness violation.
func TestAllCrashedRunPassesCheck(t *testing.T) {
	t.Parallel()
	sched, err := CrashAllExcept(1, CrashPoint{Round: 1, Phase: 1, Stage: StageRoundStart})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{AlgoLocalCoin, AlgoCommonCoin} {
		sc := Scenario{
			Protocol:  ProtocolHybrid,
			Algorithm: algo,
			Topology:  Topology{Partition: Singletons(1)},
			Workload:  Workload{Binary: []Value{One}},
			Seed:      1,
			Faults:    sched,
		}
		out, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if out.CountStatus(StatusCrashed) != 1 {
			t.Fatalf("%s: %+v, want the one process crashed", algo, out.Procs)
		}
		if vs := Check(sc, out); vs != nil {
			t.Errorf("%s: %v", algo, vs)
		}
	}
}
