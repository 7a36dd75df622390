package allforone

// The registry's property suite: every registered protocol runs through
// Run(Scenario) on one shared scenario shape and is held to agreement,
// validity, termination exactly when its liveness condition holds, indulgent
// blocking otherwise, and bit-identical replay. Run's validation of bad
// scenarios closes the file.

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

// crashSet is one crash pattern of the suite's matrix; stage marks a
// step-point pattern, run only where Info.StageCrashes.
type crashSet struct {
	name  string
	stage bool
	plan  func(sched *Schedule) error
}

// crashSets returns the crash-pattern axis on Fig1Right = {p1} {p2..p5}
// {p6,p7}: crash-free, a timed minority (p1 and p7 at 300µs) and a stage
// minority (p1 mid-broadcast in round 1, p7 before deciding in round 2).
// Both minorities keep P[2] whole, a process majority live, and mm's ring and
// the κ = 3 circulant overlay connected, so the liveness condition holds for
// every protocol.
func crashSets() []crashSet {
	return []crashSet{
		{"crash-free", false, nil},
		{"timed-minority", false, func(sched *Schedule) error {
			return errors.Join(sched.SetTimed(0, 300*time.Microsecond), sched.SetTimed(6, 300*time.Microsecond))
		}},
		{"stage-minority", true, func(sched *Schedule) error {
			return errors.Join(
				sched.Set(0, Crash{At: CrashPoint{Round: 1, Phase: 1, Stage: StageMidBroadcast}}),
				sched.Set(6, Crash{At: CrashPoint{Round: 2, Phase: 1, Stage: StageBeforeDecide}}))
		}},
	}
}

// uncovered crashes p2..p5 at time 0: the live p1, p6 and p7 neither cover a
// majority with their clusters nor are a process majority, and four crashes
// exceed the circulant's κ = 3.
func uncovered(sched *Schedule) error {
	var err error
	for p := ProcID(1); p <= 4; p++ {
		err = errors.Join(err, sched.SetTimed(p, 0))
	}
	return err
}

// schedule builds the crash schedule plan writes on n = 7; nil for no plan.
func schedule(t *testing.T, plan func(*Schedule) error) *Schedule {
	t.Helper()
	if plan == nil {
		return nil
	}
	sched := NewSchedule(7)
	if err := plan(sched); err != nil {
		t.Fatal(err)
	}
	return sched
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

// canBlock is the suite's row of each registered protocol: whether it can
// block, and so is held to the uncovered crash set. shmem is wait-free, and
// gossip's fixed round schedule always ends decided.
var canBlock = map[string]bool{
	ProtocolHybrid: true, ProtocolBenOr: true, ProtocolMPCoin: true, ProtocolMM: true,
	ProtocolMultivalued: true, ProtocolSMR: true, ProtocolRegister: true, ProtocolAllConcur: true,
	ProtocolSharedMem: false, ProtocolGossip: false,
}

// unanimous returns w with every proposal of info's kind set to one value,
// and that value rendered as a decision; ok is false for a kind with no
// single decision value (command queues, register scripts).
func unanimous(info ProtocolInfo, w Workload) (Workload, string, bool) {
	switch info.Proposals {
	case ProposalsBinary:
		w.Binary = make([]Value, len(w.Binary))
		for i := range w.Binary {
			w.Binary[i] = One
		}
		return w, One.String(), true
	case ProposalsValues:
		w.Values = make([]string, len(w.Values))
		for i := range w.Values {
			w.Values[i] = "u"
		}
		return w, "u", true
	}
	return w, "", false
}

// runAndReplay runs sc twice and fails unless the first Outcome passes Check
// and the two are DeepEqual. It returns the first.
func runAndReplay(t *testing.T, sc Scenario) *Outcome {
	t.Helper()
	ref, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if vs := Check(sc, ref); vs != nil {
		t.Fatal(vs)
	}
	out, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, out) {
		t.Fatalf("replay diverged:\n  ref: %+v\n  got: %+v", ref, out)
	}
	return ref
}

// requireLive fails unless out ended on its own with every live process
// decided.
func requireLive(t *testing.T, out *Outcome) {
	t.Helper()
	if out.BoundedOut() || !out.AllLiveDecided() {
		t.Fatalf("live processes unfinished (bounded out %v after %d steps): decided %d, crashed %d, blocked %d of %d",
			out.BoundedOut(), out.Steps, out.CountStatus(StatusDecided), out.CountStatus(StatusCrashed),
			out.CountStatus(StatusBlocked), len(out.Procs))
	}
}

// TestRegistryDifferential is the registry's property suite (paper §III-B):
// every registered protocol runs one scenario shape — Fig1Right, with mm's
// ring and the circulant overlay beside it, and diffMatrixWorkload — and is
// held to
//
//   - matrix: protocol.Check with no process blocked, and a DeepEqual
//     replay, in every cell of three seeds × the five profiles × crashSets;
//   - seed: a different seed moves Steps or VirtualTime under the uniform
//     profile;
//   - unanimous: a unanimous workload decides its value, where the proposal
//     kind has one;
//   - blocked: under every profile the uncovered crash set quiesces the run
//     with every live process blocked, where the protocol can block.
//
// Network-less protocols run the immediate profile only. A protocol
// registered without a canBlock row fails the suite.
func TestRegistryDifferential(t *testing.T) {
	t.Parallel()
	for _, info := range Protocols() {
		info := info
		blocks, ok := canBlock[info.Name]
		if !ok {
			t.Errorf("%s: no canBlock row", info.Name)
			continue
		}
		base := Scenario{
			Protocol: info.Name,
			Topology: Topology{Partition: Fig1Right(), MMEdges: mmRing(7), Overlay: diffOverlay()},
			Workload: diffMatrixWorkload(7),
			Bounds:   Bounds{MaxRounds: 10_000},
		}
		profiles := diffProfiles()
		if !info.HasNetwork {
			profiles = profiles[:1]
		}
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			t.Run("matrix", func(t *testing.T) {
				for _, prof := range profiles {
					for _, faults := range crashSets() {
						if faults.stage && !info.StageCrashes {
							continue
						}
						for seed := int64(1); seed <= 3; seed++ {
							t.Run(fmt.Sprintf("%s/%s/seed=%d", prof.name, faults.name, seed), func(t *testing.T) {
								sc := base
								sc.Profile, sc.Faults, sc.Seed = prof.p, schedule(t, faults.plan), seed
								requireLive(t, runAndReplay(t, sc))
							})
						}
					}
				}
			})
			if info.HasNetwork {
				t.Run("seed", func(t *testing.T) {
					type print struct {
						steps int64
						vt    time.Duration
					}
					seen := map[print]bool{}
					sc := base
					sc.Profile = profiles[1].p // uniform 0–200µs
					for sc.Seed = 1; sc.Seed <= 3; sc.Seed++ {
						out := runAndReplay(t, sc)
						seen[print{out.Steps, out.VirtualTime}] = true
					}
					if len(seen) < 2 {
						t.Fatalf("three seeds ran one schedule: %v", seen)
					}
				})
			}
			if w, want, ok := unanimous(info, base.Workload); ok {
				t.Run("unanimous", func(t *testing.T) {
					for _, prof := range profiles {
						sc := base
						sc.Workload, sc.Profile = w, prof.p
						out := runAndReplay(t, sc)
						requireLive(t, out)
						if got, n, _ := out.Decided(); got != want || n != len(out.Procs) {
							t.Fatalf("%s: %d processes decided %q, want all %d on %q", prof.name, n, got, len(out.Procs), want)
						}
					}
				})
			}
			if blocks {
				t.Run("blocked", func(t *testing.T) {
					for _, prof := range profiles {
						sc := base
						sc.Profile, sc.Faults = prof.p, schedule(t, uncovered)
						out := runAndReplay(t, sc)
						if !out.Quiesced || out.CountStatus(StatusBlocked) != 3 {
							t.Fatalf("%s: quiesced %v, %d of the 3 live processes blocked: %+v",
								prof.name, out.Quiesced, out.CountStatus(StatusBlocked), out.Procs)
						}
					}
				})
			}
		})
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
