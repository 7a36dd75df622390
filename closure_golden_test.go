package allforone

// The closure table of the golden corpus: the four protocols first written as
// coroutine closures — the m&m comparator, multivalued consensus, the
// scripted register and the m = 1 shared-memory object — at n ∈ {1, 4, 7,
// 12} (mm: 2, 4, 5, 7), under the baselines' three profiles and the failure
// patterns and bounds each protocol honours. Its hashes were recorded on the
// closure bodies before they became reactors.

import (
	"fmt"
	"testing"
	"time"
)

// TestClosureOutcomeGolden holds mm, multivalued, register and shmem to
// their recorded Outcomes.
func TestClosureOutcomeGolden(t *testing.T) {
	t.Parallel()
	var cells []goldenCell
	cells = append(cells, mmCells(t)...)
	cells = append(cells, multivaluedCells(t)...)
	cells = append(cells, registerCells(t)...)
	cells = append(cells, shmemCells(t)...)
	runGolden(t, "closure", cells)
}

// boundedCell is a goldenCell that a step or virtual-time bound must cut iff
// the scenario sets one.
func boundedCell(name string, sc Scenario) goldenCell {
	return goldenCell{name: "closure/" + name, sc: sc, bounded: sc.Bounds.MaxSteps > 0 || sc.Bounds.MaxVirtualTime > 0}
}

// mmGraphs are the m&m rows: one shared edge at n = 2, a path at 4, the
// appendix's Figure 2 graph at 5 and a ring at 7.
func mmGraphs(t *testing.T) []*MMGraph {
	t.Helper()
	path, err := NewMMGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := NewMMGraph(7, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 0}})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := NewMMGraph(2, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return []*MMGraph{pair, path, Fig2Graph(), ring}
}

// mmCells runs m&m, Ben-Or with a memory step before each exchange, through
// the baseline table's failure patterns: it decides in phase 2 and honours
// every staged point but after-exchange, which strikes at the next point.
func mmCells(t *testing.T) []goldenCell {
	var cells []goldenCell
	for _, g := range mmGraphs(t) {
		n := g.N()
		for _, prof := range baselineProfiles {
			for _, cr := range baselineCrashes {
				if n < 3 && !cr.everyN {
					continue
				}
				name := fmt.Sprintf("mm/n=%d/%s/%s", n, prof.name, cr.name)
				props := make([]Value, n)
				for p := range props {
					props[p] = Value(p % 2)
					if cr.unanimous {
						props[p] = One
					}
				}
				sc := Scenario{
					Protocol: ProtocolMM,
					Topology: Topology{N: n, MMEdges: g.EdgeList()},
					Workload: Workload{Binary: props},
					Profile:  prof.build(n),
					Seed:     seedOf(name),
					Bounds:   Bounds{MaxRounds: 10_000},
				}
				if cr.build != nil {
					sc.Faults = cr.build(t, n, 2)
				}
				if cr.bounds != nil {
					sc.Bounds = cr.bounds(n, midCut{squareSteps, 100 * time.Microsecond})
				}
				cells = append(cells, boundedCell(name, sc))
			}
		}
	}
	return cells
}

// hybridPatterns are the failure patterns and bounds of the partitioned
// rows (multivalued, register): crash-free under the default caps or cut by
// a bound, plus crashes. Only patterns marked everyN run at n = 1.
type hybridPattern struct {
	name   string
	everyN bool
	bounds func(n int) Bounds
	build  func(t *testing.T, n int) *Schedule
}

// timedMinority crashes every other process, from p2 on, a strict minority,
// at step instants from first on.
func timedMinority(first, step time.Duration) func(*testing.T, int) *Schedule {
	return func(t *testing.T, n int) *Schedule {
		sched := NewSchedule(n)
		for k := 0; k < (n-1)/2; k++ {
			if err := sched.SetTimed(ProcID(2*k+1), first+time.Duration(k)*step); err != nil {
				t.Fatal(err)
			}
		}
		return sched
	}
}

// multivaluedPatterns: the reduction consults one step point, the start of
// each binary round counted globally over its instances; a plan at a later
// stage of a round strikes at the next round's start.
var multivaluedPatterns = []hybridPattern{
	{name: "crash-free", everyN: true},
	{name: "max-rounds-1", everyN: true, bounds: func(int) Bounds { return Bounds{MaxRounds: 1} }},
	{name: "max-instances-1", everyN: true, bounds: func(int) Bounds { return Bounds{MaxInstances: 1} }},
	{name: "max-steps-1", bounds: func(int) Bounds { return Bounds{MaxSteps: 1} }},
	{name: "max-steps-mid", bounds: func(n int) Bounds { return Bounds{MaxSteps: int64(n * n)} }},
	{name: "max-virtual-time", bounds: func(int) Bounds { return Bounds{MaxVirtualTime: 50 * time.Microsecond} }},
	{name: "timed-minority", build: timedMinority(37*time.Microsecond, 37*time.Microsecond)},
	{name: "round-start", build: stagedHybrid(CrashPoint{Round: 1, Phase: 1, Stage: StageRoundStart})},
	{name: "round-3-start", build: stagedHybrid(CrashPoint{Round: 3, Phase: 1, Stage: StageRoundStart})},
	{name: "after-cluster-consensus", build: stagedHybrid(CrashPoint{Round: 1, Phase: 1, Stage: StageAfterClusterConsensus})},
	{name: "e2-majority", build: e2Majority},
}

// stagedHybrid crashes the (n−1)/2 lowest-numbered processes at one step
// point.
func stagedHybrid(at CrashPoint) func(*testing.T, int) *Schedule {
	return func(t *testing.T, n int) *Schedule {
		sched := NewSchedule(n)
		for p := 0; p < (n-1)/2; p++ {
			if err := sched.Set(ProcID(p), Crash{At: at}); err != nil {
				t.Fatal(err)
			}
		}
		return sched
	}
}

// e2Majority crashes everyone but process min(2, n−1) at the top of round 1.
func e2Majority(t *testing.T, n int) *Schedule {
	sched, err := CrashAllExcept(n, CrashPoint{Round: 1, Phase: 1, Stage: StageRoundStart}, ProcID(min(2, n-1)))
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// multivaluedCells runs the reduction on the hybrid rows' topologies with
// three distinct proposals.
func multivaluedCells(t *testing.T) []goldenCell {
	var cells []goldenCell
	for _, n := range []int{1, 4, 7, 12} {
		for _, prof := range baselineProfiles {
			for _, pat := range multivaluedPatterns {
				if n < 3 && !pat.everyN {
					continue
				}
				name := fmt.Sprintf("multivalued/n=%d/%s/%s", n, prof.name, pat.name)
				props := make([]string, n)
				for p := range props {
					props[p] = fmt.Sprintf("v%d", p%3)
				}
				sc := Scenario{
					Protocol: ProtocolMultivalued,
					Topology: hybridTopology(t, n),
					Workload: Workload{Values: props},
					Profile:  prof.build(n),
					Seed:     seedOf(name),
				}
				if pat.build != nil {
					sc.Faults = pat.build(t, n)
				}
				if pat.bounds != nil {
					sc.Bounds = pat.bounds(n)
				}
				cells = append(cells, boundedCell(name, sc))
			}
		}
	}
	return cells
}

// TestMultivaluedEmptyProposals pins multivalued's input rule: "" is a
// proposal like any other, so instance 0, whose target p0 proposed "", gets
// input 1 on the first cycle from every process that delivered it (the
// replicated log's first cycle supports no no-op target), and "" wins.
func TestMultivaluedEmptyProposals(t *testing.T) {
	t.Parallel()
	sc := Scenario{
		Protocol: ProtocolMultivalued,
		Topology: Topology{Partition: Fig1Left()},
		Workload: Workload{Values: []string{"", "b", "", "d", "e", "", "g"}},
		Profile:  UniformProfile(0, 200*time.Microsecond),
		Seed:     2,
	}
	out, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if vs := Check(sc, out); vs != nil {
		t.Fatal(vs)
	}
	if val, count, _ := out.Decided(); val != "" || count != 7 {
		t.Errorf("decided %q at %d processes, want \"\" at 7", val, count)
	}
	if got, want := outcomeHash(t, out), uint64(0xb733b7c287879f28); got != want {
		t.Errorf("outcome hash %#x, want %#x", got, want)
	}
}

// registerPatterns: timed crashes only (a register run has no step points).
// Every script sleeps before each operation, and the sleeps outlast the
// profiles' links, so queries and acks land during them; the "in-sleep"
// patterns put a crash instant or a virtual-time bound inside the first
// sleeps of the odd processes.
var registerPatterns = []hybridPattern{
	{name: "crash-free", everyN: true},
	{name: "max-steps-1", everyN: true, bounds: func(int) Bounds { return Bounds{MaxSteps: 1} }},
	{name: "max-steps-mid", bounds: func(n int) Bounds { return Bounds{MaxSteps: int64(2 * n * n)} }},
	{name: "max-virtual-time", everyN: true, bounds: func(int) Bounds { return Bounds{MaxVirtualTime: 200 * time.Microsecond} }},
	{name: "max-virtual-time-in-sleep", bounds: func(int) Bounds { return Bounds{MaxVirtualTime: 70 * time.Microsecond} }},
	{name: "timed-minority", build: timedMinority(290*time.Microsecond, 97*time.Microsecond)},
	{name: "timed-in-sleep", build: timedMinority(50*time.Microsecond, 20*time.Microsecond)},
	{name: "timed-majority", build: func(t *testing.T, n int) *Schedule {
		sched := NewSchedule(n)
		for p := 0; p < n; p++ {
			if p != min(2, n-1) {
				if err := sched.SetTimed(ProcID(p), 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		return sched
	}},
}

// registerScript is process p's script: a write after (p mod 3)·60 µs, a
// read 250 µs later, and for even p a second write right after it.
func registerScript(p int) []ScriptOp {
	ops := []ScriptOp{
		{Write: true, Val: fmt.Sprintf("p%d.a", p), After: time.Duration(p%3) * 60 * time.Microsecond},
		{After: 250 * time.Microsecond},
	}
	if p%2 == 0 {
		ops = append(ops, ScriptOp{Write: true, Val: fmt.Sprintf("p%d.b", p)})
	}
	return ops
}

// registerCells runs the scripted register on the hybrid rows' topologies.
func registerCells(t *testing.T) []goldenCell {
	var cells []goldenCell
	for _, n := range []int{1, 4, 7, 12} {
		for _, prof := range baselineProfiles {
			for _, pat := range registerPatterns {
				if n < 3 && !pat.everyN {
					continue
				}
				name := fmt.Sprintf("register/n=%d/%s/%s", n, prof.name, pat.name)
				scripts := make([][]ScriptOp, n)
				for p := range scripts {
					scripts[p] = registerScript(p)
				}
				sc := Scenario{
					Protocol: ProtocolRegister,
					Topology: hybridTopology(t, n),
					Workload: Workload{Scripts: scripts},
					Profile:  prof.build(n),
					Seed:     seedOf(name),
				}
				if pat.build != nil {
					sc.Faults = pat.build(t, n)
				}
				if pat.bounds != nil {
					sc.Bounds = pat.bounds(n)
				}
				cells = append(cells, boundedCell(name, sc))
			}
		}
	}
	return cells
}

// shmemPatterns: the object has no network, so the run takes no event and no
// bound cuts it; its one step point is the propose, (1, 1, before-decide),
// which every round-1 phase-1 plan reaches and no later plan does.
var shmemPatterns = []struct {
	name   string
	bounds Bounds
	build  func(t *testing.T, n int) *Schedule
}{
	{name: "crash-free"},
	{name: "max-steps-1", bounds: Bounds{MaxSteps: 1}},
	{name: "max-virtual-time", bounds: Bounds{MaxVirtualTime: time.Nanosecond}},
	{name: "timed-minority", build: timedMinority(0, 37*time.Microsecond)},
	{name: "round-start", build: stagedHybrid(CrashPoint{Round: 1, Phase: 1, Stage: StageRoundStart})},
	{name: "before-decide", build: stagedHybrid(CrashPoint{Round: 1, Phase: 1, Stage: StageBeforeDecide})},
	{name: "phase-2", build: stagedHybrid(CrashPoint{Round: 1, Phase: 2, Stage: StageRoundStart})},
	{name: "round-2", build: stagedHybrid(CrashPoint{Round: 2, Phase: 1, Stage: StageRoundStart})},
	{name: "e2-majority", build: e2Majority},
}

// shmemCells runs the compare&swap object at n ∈ {1, 4, 7, 12}.
func shmemCells(t *testing.T) []goldenCell {
	var cells []goldenCell
	for _, n := range []int{1, 4, 7, 12} {
		for _, pat := range shmemPatterns {
			name := fmt.Sprintf("shmem/n=%d/%s", n, pat.name)
			props := make([]Value, n)
			for p := range props {
				props[p] = Value((p + 1) % 2)
			}
			sc := Scenario{
				Protocol: ProtocolSharedMem,
				Topology: Topology{N: n},
				Workload: Workload{Binary: props},
				Seed:     seedOf(name),
				Bounds:   pat.bounds,
			}
			if pat.build != nil {
				sc.Faults = pat.build(t, n)
			}
			cells = append(cells, goldenCell{name: "closure/" + name, sc: sc})
		}
	}
	return cells
}
