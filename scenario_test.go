package allforone

// The registry differential test: every registered protocol runs through
// Run(Scenario) on one shared scenario matrix — network profiles × crash
// patterns — and must pass protocol.Check everywhere, blocking nowhere. A
// second test replays non-uniform profiles and demands bit-identical
// Outcomes.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"allforone/internal/protocol"
)

// diffMatrixWorkload builds one Workload carrying every proposal kind, so
// a single scenario drives the whole registry.
func diffMatrixWorkload(n int) Workload {
	w := Workload{Slots: 2}
	for i := 0; i < n; i++ {
		w.Binary = append(w.Binary, Value(int8(i%2)))
		w.Values = append(w.Values, fmt.Sprintf("v%d", i%3))
		w.Commands = append(w.Commands, []string{fmt.Sprintf("cmd%d", i)})
		w.Scripts = append(w.Scripts, []ScriptOp{
			ScriptWrite(fmt.Sprintf("w%d", i)),
			ScriptRead(),
		})
	}
	return w
}

// diffProfiles returns the profile axis: immediate delivery plus three
// non-uniform policies (per-link skew, asymmetric cluster WAN, a partition
// of the first cluster healing at 1ms).
func diffProfiles() []struct {
	name string
	p    NetworkProfile
} {
	return []struct {
		name string
		p    NetworkProfile
	}{
		{"immediate", nil},
		{"uniform", UniformProfile(0, 200*time.Microsecond)},
		{"skew", DistanceSkewProfile(50*time.Microsecond, 25*time.Microsecond)},
		{"wan", ClusterWANProfile(50*time.Microsecond, 300*time.Microsecond, 50*time.Microsecond)},
		{"heal", HealingPartitionProfile(nil, time.Millisecond, 0, 100*time.Microsecond)},
	}
}

// diffFaults returns the crash-pattern axis: crash-free, and a timed
// minority crash (p1 and p7 at 300µs) that keeps the liveness condition —
// and a process majority — intact for every protocol.
func diffFaults(t *testing.T, n int) []struct {
	name string
	f    func() *Schedule
} {
	return []struct {
		name string
		f    func() *Schedule
	}{
		{"crash-free", func() *Schedule { return nil }},
		{"timed-minority", func() *Schedule {
			sched := NewSchedule(n)
			for _, p := range []ProcID{0, 6} {
				if err := sched.SetTimed(p, 300*time.Microsecond); err != nil {
					t.Fatal(err)
				}
			}
			return sched
		}},
	}
}

// mmRing returns ring edges over n processes (the differential topology
// for the graph-based m&m protocol).
func mmRing(n int) [][2]int {
	edges := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return edges
}

// diffOverlay returns the overlay spec injected for NeedsOverlay protocols:
// a circulant digraph of degree 3, whose vertex connectivity κ = 3 covers
// the matrix's two timed crashes (the overlay package pins by test that
// every 2-subset removal leaves it strongly connected).
func diffOverlay() *OverlaySpec {
	return &OverlaySpec{Kind: OverlayCirculant, Degree: 3}
}

// checkDiffOutcome holds a matrix cell to protocol.Check. The liveness
// condition holds in every cell (≥ a process majority survives, and the
// majority cluster keeps a member), so no process may end blocked either.
func checkDiffOutcome(t *testing.T, sc Scenario, out *Outcome) {
	t.Helper()
	if vs := protocol.Check(sc, out); vs != nil {
		t.Fatal(vs)
	}
	if got := out.CountStatus(StatusBlocked); got != 0 {
		t.Fatalf("%d blocked processes: %+v", got, out.Procs)
	}
}

// TestRegistryDifferential is the acceptance matrix: every registered
// protocol × ≥3 network profiles × 2 crash patterns.
func TestRegistryDifferential(t *testing.T) {
	t.Parallel()
	part := Fig1Right() // n=7; P[2] is a majority cluster
	n := part.N()

	for _, info := range Protocols() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			for _, prof := range diffProfiles() {
				if prof.p != nil && !info.HasNetwork {
					continue
				}
				for _, faults := range diffFaults(t, n) {
					name := fmt.Sprintf("%s/%s", prof.name, faults.name)
					sc := Scenario{
						Protocol: info.Name,
						Topology: Topology{Partition: part},
						Workload: diffMatrixWorkload(n),
						Faults:   faults.f(),
						Profile:  prof.p,
						Seed:     42,
						Bounds:   Bounds{MaxRounds: 10_000},
					}
					if info.NeedsGraph {
						sc.Topology.MMEdges = mmRing(n)
					}
					if info.NeedsOverlay {
						sc.Topology.Overlay = diffOverlay()
					}
					out, err := Run(sc)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkDiffOutcome(t, sc, out)
				}
			}
		})
	}
}

// TestScenarioReplayBitReproducible replays every protocol under the
// non-uniform profiles: identical Scenarios must
// produce identical Outcomes, field for field — including the virtual
// clock, the step count, and every per-process result.
func TestScenarioReplayBitReproducible(t *testing.T) {
	t.Parallel()
	part := Fig1Right()
	n := part.N()
	profiles := map[string]NetworkProfile{
		"skew": DistanceSkewProfile(50*time.Microsecond, 25*time.Microsecond),
		"heal": HealingPartitionProfile(nil, time.Millisecond, 0, 100*time.Microsecond),
	}
	for _, info := range Protocols() {
		if !info.HasNetwork {
			continue
		}
		for profName, prof := range profiles {
			sched := NewSchedule(n)
			if err := sched.SetTimed(6, 300*time.Microsecond); err != nil {
				t.Fatal(err)
			}
			sc := Scenario{
				Protocol: info.Name,
				Topology: Topology{Partition: part},
				Workload: diffMatrixWorkload(n),
				Faults:   sched,
				Profile:  prof,
				Seed:     7,
				Bounds:   Bounds{MaxRounds: 10_000},
			}
			if info.NeedsGraph {
				sc.Topology.MMEdges = mmRing(n)
			}
			if info.NeedsOverlay {
				sc.Topology.Overlay = diffOverlay()
			}
			first, err := Run(sc)
			if err != nil {
				t.Fatalf("%s/%s: %v", info.Name, profName, err)
			}
			second, err := Run(sc)
			if err != nil {
				t.Fatalf("%s/%s replay: %v", info.Name, profName, err)
			}
			if first.VirtualTime == 0 && first.Steps == 0 {
				t.Fatalf("%s/%s: virtual run reports no clock/steps", info.Name, profName)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("%s/%s: replay diverged:\n  first:  %+v\n  second: %+v", info.Name, profName, first, second)
			}
		}
	}
}

// TestRunRejectsBadScenarios covers the registry-level validation layer.
func TestRunRejectsBadScenarios(t *testing.T) {
	t.Parallel()
	part := Fig1Right()
	good := Scenario{
		Protocol: ProtocolHybrid,
		Topology: Topology{Partition: part},
		Workload: diffMatrixWorkload(part.N()),
	}
	if _, err := Run(good); err != nil {
		t.Fatalf("baseline scenario failed: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(sc *Scenario)
	}{
		{"unknown protocol", func(sc *Scenario) { sc.Protocol = "paxos" }},
		{"missing partition", func(sc *Scenario) { sc.Topology = Topology{N: 7} }},
		{"inconsistent topology", func(sc *Scenario) { sc.Topology.N = 5 }},
		{"unknown algorithm", func(sc *Scenario) { sc.Algorithm = "quantum-coin" }},
		{"mm without edges", func(sc *Scenario) { sc.Protocol = ProtocolMM }},
		{"oversized crash schedule", func(sc *Scenario) {
			sched := NewSchedule(9)
			if err := sched.SetTimed(8, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			sc.Faults = sched
		}},
		{"profile on network-less protocol", func(sc *Scenario) {
			sc.Protocol = ProtocolSharedMem
			sc.Profile = UniformProfile(0, time.Millisecond)
		}},
		{"step crashes on register", func(sc *Scenario) {
			sc.Protocol = ProtocolRegister
			sched := NewSchedule(7)
			if err := sched.Set(0, Crash{At: CrashPoint{Round: 1, Phase: 1, Stage: StageRoundStart}}); err != nil {
				t.Fatal(err)
			}
			sc.Faults = sched
		}},
		{"trace on untraceable protocol", func(sc *Scenario) {
			sc.Protocol = ProtocolBenOr
			sc.Trace = NewTrace()
		}},
		{"gossip without overlay", func(sc *Scenario) {
			sc.Protocol = ProtocolGossip
		}},
		{"overlay spec too dense for n", func(sc *Scenario) {
			sc.Protocol = ProtocolAllConcur
			sc.Topology.Overlay = &OverlaySpec{Kind: OverlayDeBruijn, Degree: 7} // n = 7 allows at most d = 6
		}},
	}
	for _, tc := range cases {
		sc := good
		tc.mutate(&sc)
		if _, err := Run(sc); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// Run-shape knobs are validated once, for every protocol: each registry
	// entry's valid scenario must turn ErrBadScenario under each bad knob.
	shape := []struct {
		name   string
		mutate func(sc *Scenario)
	}{
		{"negative MaxRounds", func(sc *Scenario) { sc.Bounds.MaxRounds = -1 }},
		{"negative MaxInstances", func(sc *Scenario) { sc.Bounds.MaxInstances = -1 }},
		{"negative MaxVirtualTime", func(sc *Scenario) { sc.Bounds.MaxVirtualTime = -time.Millisecond }},
		{"inverted uniform band", func(sc *Scenario) { sc.Profile = UniformProfile(5*time.Millisecond, 0) }},
	}
	for _, info := range Protocols() {
		base := Scenario{
			Protocol: info.Name,
			Topology: Topology{Partition: part, MMEdges: mmRing(part.N()), Overlay: diffOverlay()},
			Workload: diffMatrixWorkload(part.N()),
		}
		if _, err := Run(base); err != nil {
			t.Fatalf("%s: baseline scenario failed: %v", info.Name, err)
		}
		for _, tc := range shape {
			sc := base
			tc.mutate(&sc)
			if _, err := Run(sc); !errors.Is(err, protocol.ErrBadScenario) {
				t.Errorf("%s: %s: err = %v, want ErrBadScenario", info.Name, tc.name, err)
			}
		}
	}
}
