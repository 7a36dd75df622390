package allforone

// The baseline table of the golden corpus: the four protocols on core's
// binary round machine — its two flat variants, Ben-Or and the
// message-passing common-coin baseline, and both hybrid algorithms — at
// n ∈ {1, 4, 7, 12}, under every profile and failure pattern below.

import (
	"fmt"
	"testing"
	"time"
)

// baselineProtocols are the table's rows: the registry protocol and
// algorithm a cell runs, the phase it decides in, and its topology at n ∈
// {1, 4, 7, 12}. The message-passing baselines run on n bare processes; the
// hybrid algorithms on one singleton, two clusters of two, Figure 1's right
// partition (clusters of 1, 4 and 2) and three clusters of four.
var baselineProtocols = []baselineRow{
	{"benor", ProtocolBenOr, "", 2, flatTopology, midCut{squareSteps, 100 * time.Microsecond}},
	{"mpcoin", ProtocolMPCoin, "", 1, flatTopology, midCut{squareSteps, 100 * time.Microsecond}},
	{"hybrid-local", ProtocolHybrid, AlgoLocalCoin, 2, hybridTopology, midCut{linearSteps, 20 * time.Microsecond}},
	{"hybrid-common", ProtocolHybrid, AlgoCommonCoin, 1, hybridTopology, midCut{linearSteps, 20 * time.Microsecond}},
}

type baselineRow struct {
	name, protocol, algorithm string
	decidePhase               int
	topology                  func(t *testing.T, n int) Topology
	mid                       midCut
}

// midCut places a row's step and virtual-time bounds inside its first
// exchanges. The one-for-all exit closes a hybrid exchange after a handful
// of deliveries, so the hybrid rows cut at n steps and 20 µs where the
// baselines cut at n² steps and 100 µs.
type midCut struct {
	steps func(n int) int64
	time  time.Duration
}

func squareSteps(n int) int64 { return int64(n * n) }
func linearSteps(n int) int64 { return int64(n) }

func flatTopology(_ *testing.T, n int) Topology { return Topology{N: n} }

func hybridTopology(t *testing.T, n int) Topology {
	t.Helper()
	switch n {
	case 1:
		return Topology{Partition: Singletons(1)}
	case 7:
		return Topology{Partition: Fig1Right()}
	}
	part, err := Blocks(n, map[int]int{4: 2, 12: 3}[n])
	if err != nil {
		t.Fatal(err)
	}
	return Topology{Partition: part}
}

// baselineProfiles are the three delay-policy shapes a baseline cell runs
// under: the paper trials' band, a deterministic per-link matrix, and a cut
// around the first third of the processes that heals at 300 µs.
var baselineProfiles = []struct {
	name  string
	build func(n int) NetworkProfile
}{
	{"uniform", func(int) NetworkProfile { return UniformProfile(0, 200*time.Microsecond) }},
	{"skew", func(n int) NetworkProfile {
		m := make([][]time.Duration, n)
		for i := range m {
			m[i] = make([]time.Duration, n)
			for j := range m[i] {
				m[i][j] = 10*time.Microsecond + time.Duration((3*i+5*j)%13)*11*time.Microsecond
			}
		}
		return SkewMatrixProfile(m)
	}},
	{"heal", func(n int) NetworkProfile {
		var cut []ProcID
		for p := 0; p < (n+2)/3; p++ {
			cut = append(cut, ProcID(p))
		}
		return HealingPartitionProfile(cut, 300*time.Microsecond, 0, 100*time.Microsecond)
	}},
}

// baselineCrashes are the failure patterns. A pattern without build runs
// crash-free under its bounds: the default round cap, one round, or a step
// or virtual-time bound that cuts the run — at its first event, inside the
// first exchanges, or before the healing partition heals. The first event is
// the earliest cut there is: the scheduler runs every process's first step
// before it fires any event, so no bound lands before a process started.
// Only the first two patterns run at n = 1, whose runs end within two steps.
// Every other pattern but e2 crashes a strict minority, so it exists
// only where a minority is non-empty (n ≥ 3); e2 is the paper's majority
// crash, everyone but process min(2, n−1) at the top of round 1: Check demands
// that the survivor decide iff its cluster covers a majority, and otherwise
// block forever with nobody decided. The staged
// points sit in round 1; decidePhase is the phase a protocol decides in. A
// protocol without cluster consensus crashes an after-cluster-consensus
// victim at its next step point.
var baselineCrashes = []struct {
	name      string
	everyN    bool                           // also runs at n = 1
	unanimous bool                           // all propose One (the cell must reach a decision point)
	bounds    func(n int, mid midCut) Bounds // nil: MaxRounds 10 000
	build     func(t *testing.T, n, decidePhase int) *Schedule
}{
	{name: "crash-free", everyN: true},
	{name: "max-rounds-1", everyN: true, bounds: func(int, midCut) Bounds { return Bounds{MaxRounds: 1} }},
	{name: "max-steps-1", bounds: func(int, midCut) Bounds { return Bounds{MaxRounds: 10_000, MaxSteps: 1} }},
	{name: "max-steps-mid", bounds: func(n int, mid midCut) Bounds { return Bounds{MaxRounds: 10_000, MaxSteps: mid.steps(n)} }},
	{name: "max-virtual-time", bounds: func(_ int, mid midCut) Bounds { return Bounds{MaxRounds: 10_000, MaxVirtualTime: mid.time} }},
	{name: "timed-minority", build: func(t *testing.T, n, _ int) *Schedule {
		sched := NewSchedule(n)
		for k := 0; k < (n-1)/2; k++ {
			if err := sched.SetTimed(ProcID(2*k+1), time.Duration(k+1)*37*time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		return sched
	}},
	{name: "after-cluster-consensus", build: stagedMinority(1, StageAfterClusterConsensus, nil)},
	{name: "mid-broadcast-deliver-to", build: stagedMinority(1, StageMidBroadcast, func(n int) []ProcID {
		return []ProcID{ProcID(n - 1), ProcID(n / 2), 0}
	})},
	{name: "mid-broadcast-random-subset", build: stagedMinority(1, StageMidBroadcast, nil)},
	{name: "after-exchange", build: stagedMinority(1, StageAfterExchange, nil)},
	{name: "after-exchange-decide-phase", build: stagedMinority(0, StageAfterExchange, nil)},
	{name: "before-decide-partial", unanimous: true, build: stagedMinority(0, StageBeforeDecide, func(n int) []ProcID {
		return []ProcID{ProcID(n - 1)}
	})},
	{name: "e2-majority", build: func(t *testing.T, n, _ int) *Schedule {
		sched, err := CrashAllExcept(n, CrashPoint{Round: 1, Phase: 1, Stage: StageRoundStart}, ProcID(min(2, n-1)))
		if err != nil {
			t.Fatal(err)
		}
		return sched
	}},
}

// stagedMinority crashes the (n−1)/2 lowest-numbered processes at one round-1
// step point: phase 0 means the protocol's decide phase. deliverTo, when
// non-nil, names the recipients of the interrupted broadcast; nil leaves
// them to the protocol's own random subset.
func stagedMinority(phase int, stage CrashStage, deliverTo func(n int) []ProcID) func(*testing.T, int, int) *Schedule {
	return func(t *testing.T, n, decidePhase int) *Schedule {
		t.Helper()
		at := CrashPoint{Round: 1, Phase: phase, Stage: stage}
		if phase == 0 {
			at.Phase = decidePhase
		}
		sched := NewSchedule(n)
		for p := 0; p < (n-1)/2; p++ {
			c := Crash{At: at}
			if deliverTo != nil {
				c.DeliverTo = deliverTo(n)
			}
			if err := sched.Set(ProcID(p), c); err != nil {
				t.Fatal(err)
			}
		}
		return sched
	}
}

// TestBaselineOutcomeGolden holds the binary round machines to their
// recorded Outcomes.
func TestBaselineOutcomeGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, "baseline", baselineCells(t))
}

// baselineCells is the table: every row × n × profile × failure pattern.
// A cell with a step or virtual-time bound must be cut by it.
func baselineCells(t *testing.T) []goldenCell {
	var cells []goldenCell
	for _, proto := range baselineProtocols {
		for _, n := range []int{1, 4, 7, 12} {
			for _, prof := range baselineProfiles {
				for _, cr := range baselineCrashes {
					if n < 3 && !cr.everyN {
						continue
					}
					name := fmt.Sprintf("%s/n=%d/%s/%s", proto.name, n, prof.name, cr.name)
					props := make([]Value, n)
					for p := range props {
						props[p] = Value(p % 2)
						if cr.unanimous {
							props[p] = One
						}
					}
					sc := Scenario{
						Protocol:  proto.protocol,
						Algorithm: proto.algorithm,
						Topology:  proto.topology(t, n),
						Workload:  Workload{Binary: props},
						Profile:   prof.build(n),
						Seed:      seedOf(name),
						Bounds:    Bounds{MaxRounds: 10_000},
					}
					if cr.build != nil {
						sc.Faults = cr.build(t, n, proto.decidePhase)
					}
					if cr.bounds != nil {
						sc.Bounds = cr.bounds(n, proto.mid)
					}
					cells = append(cells, goldenCell{
						name:    "baseline/" + name,
						sc:      sc,
						bounded: sc.Bounds.MaxSteps > 0 || sc.Bounds.MaxVirtualTime > 0,
					})
				}
			}
		}
	}
	return cells
}
