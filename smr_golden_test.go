package allforone

// The smr table of the golden corpus: the replicated log on both Fig. 1
// decompositions, four singletons and three blocks of three (a single
// replica for the crash-free and bounded patterns), under every profile and
// failure pattern below.

import (
	"fmt"
	"testing"
	"time"
)

// smrGoldenSlots is the log length of every cell; each queue holds one
// command fewer, so a replica that commits all of its own proposes no-ops.
const smrGoldenSlots = 4

// smrProfiles are the kvlog benchmark's delay band plus the baselines'
// per-link matrix and healing partition. cut is an instant inside every
// cell's first slot: the matrix's links (10–142 µs) finish a crash-free log
// at 110 µs on one replica and 343 µs on Fig1Right, so it is cut earlier.
var smrProfiles = []struct {
	name  string
	build func(n int) NetworkProfile
	cut   time.Duration
}{
	{"uniform", func(int) NetworkProfile { return UniformProfile(50*time.Microsecond, 500*time.Microsecond) }, 400 * time.Microsecond},
	{baselineProfiles[1].name, baselineProfiles[1].build, 100 * time.Microsecond},
	{baselineProfiles[2].name, baselineProfiles[2].build, 400 * time.Microsecond},
}

// smrPatterns are the failure patterns and bounds. A pattern without build
// runs crash-free under its bounds: the default round cap, one round per
// instance, or a step or virtual-time bound (the profile's cut) that cuts
// the run at its first event or mid-log. Only those run on a single
// replica. The staged crashes strike at a binary round start, counted
// globally over the replica's instances: round 1 is the first instance of
// slot 0, round 6 lies mid-log. The last pattern leaves one member of the
// largest cluster alive: on Fig1Right that cluster is a majority, so Check
// demands that the survivor complete the log alone; elsewhere that the run
// quiesce with no log complete.
var smrPatterns = []struct {
	name   string
	everyN bool                                  // also runs on Singletons(1)
	bounds func(n int, cut time.Duration) Bounds // nil: MaxRounds 1000
	build  func(t *testing.T, part *Partition) *Schedule
}{
	{name: "crash-free", everyN: true},
	{name: "max-rounds-1", everyN: true, bounds: func(int, time.Duration) Bounds { return Bounds{MaxRounds: 1} }},
	{name: "max-steps-1", everyN: true, bounds: func(int, time.Duration) Bounds { return Bounds{MaxRounds: 1000, MaxSteps: 1} }},
	{name: "max-steps-mid", everyN: true, bounds: func(n int, _ time.Duration) Bounds {
		return Bounds{MaxRounds: 1000, MaxSteps: int64(8 * n * n)}
	}},
	{name: "max-virtual-time", everyN: true, bounds: func(_ int, cut time.Duration) Bounds {
		return Bounds{MaxRounds: 1000, MaxVirtualTime: cut}
	}},
	{name: "timed-minority", build: func(t *testing.T, part *Partition) *Schedule {
		n := part.N()
		sched := NewSchedule(n)
		for k := 0; k < (n-1)/2; k++ {
			if err := sched.SetTimed(ProcID(2*k+1), time.Duration(k+1)*370*time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		return sched
	}},
	{name: "staged-minority", build: func(t *testing.T, part *Partition) *Schedule {
		n := part.N()
		sched := NewSchedule(n)
		for p := 0; p < (n-1)/2; p++ {
			if err := sched.Set(ProcID(p), Crash{At: CrashPoint{Round: 1, Phase: 1, Stage: StageRoundStart}}); err != nil {
				t.Fatal(err)
			}
		}
		return sched
	}},
	{name: "staged-mid-log", build: func(t *testing.T, part *Partition) *Schedule {
		sched := NewSchedule(part.N())
		if err := sched.Set(ProcID(part.N()/2), Crash{At: CrashPoint{Round: 6, Phase: 1, Stage: StageRoundStart}}); err != nil {
			t.Fatal(err)
		}
		return sched
	}},
	{name: "all-but-one-of-largest", build: func(t *testing.T, part *Partition) *Schedule {
		sched, err := CrashAllExcept(part.N(), CrashPoint{Round: 1, Phase: 1, Stage: StageRoundStart}, smrSurvivor(part))
		if err != nil {
			t.Fatal(err)
		}
		return sched
	}},
}

// smrSurvivor is the lowest-numbered member of the first largest cluster.
func smrSurvivor(part *Partition) ProcID {
	best := ClusterID(0)
	for x, size := range part.Sizes() {
		if size > part.Size(best) {
			best = ClusterID(x)
		}
	}
	return part.Members(best)[0]
}

// TestSMROutcomeGolden holds the replicated log to its recorded Outcomes.
func TestSMROutcomeGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, "smr", smrCells(t))
}

// smrCells is the table: every topology × profile × pattern. Each cell's
// queues hold smrGoldenSlots−1 commands, except the last replica's, which
// stays empty so its no-op proposals compete from the first slot on. A cell
// with a step or virtual-time bound must be cut by it.
func smrCells(t *testing.T) []goldenCell {
	blocks, err := Blocks(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	topologies := []struct {
		name string
		part *Partition
	}{
		{"fig1-left", Fig1Left()},
		{"fig1-right", Fig1Right()},
		{"singletons-4", Singletons(4)},
		{"blocks-9-3", blocks},
		{"singletons-1", Singletons(1)},
	}
	var cells []goldenCell
	for _, top := range topologies {
		n := top.part.N()
		cmds := make([][]string, n)
		for p := 0; p < n-1; p++ {
			for c := 0; c < smrGoldenSlots-1; c++ {
				cmds[p] = append(cmds[p], fmt.Sprintf("set k%d=p%d.%d", (p+c)%3, p, c))
			}
		}
		for _, prof := range smrProfiles {
			for _, pat := range smrPatterns {
				if n == 1 && !pat.everyN {
					continue
				}
				name := fmt.Sprintf("%s/%s/%s", top.name, prof.name, pat.name)
				sc := Scenario{
					Protocol: ProtocolSMR,
					Topology: Topology{Partition: top.part},
					Workload: Workload{Commands: cmds, Slots: smrGoldenSlots},
					Profile:  prof.build(n),
					Seed:     seedOf(name),
					Bounds:   Bounds{MaxRounds: 1000},
				}
				if pat.build != nil {
					sc.Faults = pat.build(t, top.part)
				}
				if pat.bounds != nil {
					sc.Bounds = pat.bounds(n, prof.cut)
				}
				cells = append(cells, goldenCell{
					name:    "smr/" + name,
					sc:      sc,
					bounded: sc.Bounds.MaxSteps > 0 || sc.Bounds.MaxVirtualTime > 0,
				})
			}
		}
	}
	return cells
}
