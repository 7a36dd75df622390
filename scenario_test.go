package allforone

// The registry's property suite: every registered protocol runs through
// Run(Scenario) on one shared scenario shape and is held to agreement,
// validity, termination exactly when its liveness condition holds, indulgent
// blocking otherwise, and bit-identical replay. Run's validation of bad
// scenarios closes the file.

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
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

// uncovered crashes p2..p5 before they act, at time 0 or, as a step-point
// pattern, at the top of round 1: the live p1, p6 and p7 neither cover a
// majority with their clusters nor are a process majority, and four crashes
// exceed the circulant's κ = 3.
func uncovered() []crashSet {
	each := func(set func(sched *Schedule, p ProcID) error) func(*Schedule) error {
		return func(sched *Schedule) error {
			var err error
			for p := ProcID(1); p <= 4; p++ {
				err = errors.Join(err, set(sched, p))
			}
			return err
		}
	}
	atStart := Crash{At: CrashPoint{Round: 1, Phase: 1, Stage: StageRoundStart}}
	return []crashSet{
		{"timed", false, each(func(sched *Schedule, p ProcID) error { return sched.SetTimed(p, 0) })},
		{"round-start", true, each(func(sched *Schedule, p ProcID) error { return sched.Set(p, atStart) })},
	}
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

// topologyRows are the shapes, beside the suite's shared one, that the
// schedules property runs a protocol on: mm also runs on the appendix graph
// Fig2 (n = 5), whose memory domains overlap unlike the ring's, with
// proposals alternating from 1.
var topologyRows = map[string][]struct {
	name     string
	topology Topology
	workload Workload
}{
	ProtocolMM: {{"fig2", Topology{N: 5, MMEdges: Fig2Graph().EdgeList()}, Workload{Binary: []Value{One, Zero, One, Zero, One}}}},
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

// relabelled returns Fig1Right with its clusters reordered, {p6,p7} {p1}
// {p2..p5}, and where each cluster of Fig1Right went: its cluster x is
// cluster at[x] of the relabelled partition.
func relabelled(t *testing.T) (part *Partition, at []int) {
	t.Helper()
	part, err := NewPartition([][]int{{5, 6}, {0}, {1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	return part, []int{1, 2, 0}
}

// unrelabel returns out with its cluster-indexed counts (a binary Result's
// ConsInvocations and ConsAllocations) put back in the order of the
// partition the relabelled one reorders, cluster x read at at[x].
func unrelabel(out *Outcome, at []int) *Outcome {
	res, ok := out.Raw.(*Result)
	if !ok || len(res.ConsInvocations) != len(at) {
		return out
	}
	back := func(counts []int64) []int64 {
		orig := make([]int64, len(counts))
		for x := range orig {
			orig[x] = counts[at[x]]
		}
		return orig
	}
	r := *res
	r.ConsInvocations, r.ConsAllocations = back(res.ConsInvocations), back(res.ConsAllocations)
	o := *out
	o.Raw = &r
	return &o
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
//   - schedules: protocol.Check in each of 32 seeds × {immediate delivery,
//     a 0–1 ms uniform band} × each algorithm the protocol lists, crash-free,
//     so that includes deciding everywhere, on the shared shape and each of
//     the protocol's topologyRows;
//   - blocked: under every profile the uncovered crash set, timed and (where
//     Info.StageCrashes) at round 1's start, quiesces the run with every live
//     process blocked, where the protocol can block;
//   - relabel: reordering the partition's clusters (relabelled) leaves the
//     Outcome identical, up to the order of its cluster-indexed counts, in
//     every cell of the matrix at one seed. heal is the one profile left
//     out: its default cut names cluster 0, so a relabelling moves it.
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
			t.Run("schedules", func(t *testing.T) {
				algos := info.Algorithms
				if len(algos) == 0 {
					algos = []string{""}
				}
				bands := []NetworkProfile{nil, UniformProfile(0, time.Millisecond)}
				if !info.HasNetwork {
					bands = bands[:1]
				}
				shapes := map[string]Scenario{"shared": base}
				for _, row := range topologyRows[info.Name] {
					sc := base
					sc.Topology, sc.Workload = row.topology, row.workload
					shapes[row.name] = sc
				}
				for name, shape := range shapes {
					for _, algo := range algos {
						for _, band := range bands {
							for seed := int64(0); seed < 32; seed++ {
								sc := shape
								sc.Algorithm, sc.Profile, sc.Seed = algo, band, seed
								out, err := Run(sc)
								if err != nil {
									t.Fatalf("%s: algorithm %q, band %v, seed %d: %v", name, algo, band != nil, seed, err)
								}
								if vs := Check(sc, out); vs != nil {
									t.Errorf("%s: algorithm %q, band %v, seed %d: %v", name, algo, band != nil, seed, vs)
								}
							}
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
			t.Run("relabel", func(t *testing.T) {
				part, at := relabelled(t)
				for _, prof := range profiles {
					if prof.name == "heal" {
						continue
					}
					for _, faults := range crashSets() {
						if faults.stage && !info.StageCrashes {
							continue
						}
						sc := base
						sc.Profile, sc.Faults, sc.Seed = prof.p, schedule(t, faults.plan), 1
						want, err := Run(sc)
						if err != nil {
							t.Fatal(err)
						}
						sc.Topology.Partition = part
						got, err := Run(sc)
						if err != nil {
							t.Fatal(err)
						}
						if got := unrelabel(got, at); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s/%s: relabelling the clusters changed the run:\n  got: %+v\n want: %+v",
								prof.name, faults.name, got, want)
						}
					}
				}
			})
			if blocks {
				t.Run("blocked", func(t *testing.T) {
					for _, prof := range profiles {
						for _, faults := range uncovered() {
							if faults.stage && !info.StageCrashes {
								continue
							}
							sc := base
							sc.Profile, sc.Faults = prof.p, schedule(t, faults.plan)
							out := runAndReplay(t, sc)
							if !out.Quiesced || out.CountStatus(StatusBlocked) != 3 {
								t.Fatalf("%s/%s: quiesced %v, %d of the 3 live processes blocked: %+v",
									prof.name, faults.name, out.Quiesced, out.CountStatus(StatusBlocked), out.Procs)
							}
						}
					}
				})
			}
		})
	}
}

// TestRunRejectsBadScenarios covers the registry-level validation layer.
// Every case runs against every registry entry's valid scenario, and each
// protocol's Info decides the verdict: a case it refuses — a topology field
// it runs on taken away, a step crash plan where !StageCrashes, a profile
// where !HasNetwork, a trace where !Traceable, an algorithm it does not
// list, a malformed workload field of its kind, or a bad run shape — must
// turn ErrBadScenario, and a case it allows must run.
func TestRunRejectsBadScenarios(t *testing.T) {
	t.Parallel()
	part := Fig1Right()
	n := part.N()
	if _, err := Run(Scenario{Protocol: "paxos", Topology: Topology{N: n}}); !errors.Is(err, protocol.ErrUnknownProtocol) {
		t.Errorf("unknown protocol: err = %v, want ErrUnknownProtocol", err)
	}
	always := func(ProtocolInfo) bool { return true }
	kind := func(k ProposalKind) func(ProtocolInfo) bool {
		return func(info ProtocolInfo) bool { return info.Proposals == k }
	}
	topology := func(k TopologyKind) func(ProtocolInfo) bool {
		return func(info ProtocolInfo) bool { return info.Topology == k }
	}
	type badCase struct {
		name    string
		refused func(ProtocolInfo) bool
		mutate  func(sc *Scenario)
	}
	cases := []badCase{
		{"empty topology", always, func(sc *Scenario) { sc.Topology = Topology{} }},
		{"inconsistent topology", always, func(sc *Scenario) { sc.Topology.N = 5 }},
		{"no partition", topology(TopologyPartition), func(sc *Scenario) { sc.Topology.Partition, sc.Topology.N = nil, n }},
		{"no m&m edges", topology(TopologyGraph), func(sc *Scenario) { sc.Topology.MMEdges = nil }},
		{"m&m self-loop", topology(TopologyGraph), func(sc *Scenario) { sc.Topology.MMEdges = [][2]int{{0, 0}} }},
		{"no overlay", topology(TopologyOverlay), func(sc *Scenario) { sc.Topology.Overlay = nil }},
		{"overlay too dense for n", topology(TopologyOverlay), func(sc *Scenario) {
			sc.Topology.Overlay = &OverlaySpec{Kind: OverlayDeBruijn, Degree: n} // n allows at most d = n − 1
		}},
		{"step crash plan", func(info ProtocolInfo) bool { return !info.StageCrashes }, func(sc *Scenario) {
			sched := NewSchedule(n)
			if err := sched.Set(0, Crash{At: CrashPoint{Round: 1, Phase: 1, Stage: StageRoundStart}}); err != nil {
				t.Fatal(err)
			}
			sc.Faults = sched
		}},
		{"network profile", func(info ProtocolInfo) bool { return !info.HasNetwork }, func(sc *Scenario) {
			sc.Profile = UniformProfile(0, time.Millisecond)
		}},
		{"trace", func(info ProtocolInfo) bool { return !info.Traceable }, func(sc *Scenario) { sc.Trace = NewTrace() }},
		{"oversized crash schedule", always, func(sc *Scenario) {
			sched := NewSchedule(n + 2)
			if err := sched.SetTimed(ProcID(n+1), time.Millisecond); err != nil {
				t.Fatal(err)
			}
			sc.Faults = sched
		}},
		{"negative MaxRounds", always, func(sc *Scenario) { sc.Bounds.MaxRounds = -1 }},
		{"negative MaxInstances", always, func(sc *Scenario) { sc.Bounds.MaxInstances = -1 }},
		{"negative MaxVirtualTime", always, func(sc *Scenario) { sc.Bounds.MaxVirtualTime = -time.Millisecond }},
		{"inverted uniform band", always, func(sc *Scenario) { sc.Profile = UniformProfile(5*time.Millisecond, 0) }},
		{"short workload", always, func(sc *Scenario) {
			w := &sc.Workload
			w.Binary, w.Values, w.Commands, w.Scripts = w.Binary[:3], w.Values[:3], w.Commands[:3], w.Scripts[:3]
		}},
		{"long workload", always, func(sc *Scenario) { sc.Workload = diffMatrixWorkload(n + 1) }},
		{"missing workload", always, func(sc *Scenario) { sc.Workload = Workload{Slots: 2} }},
		{"non-binary proposal", kind(ProposalsBinary), func(sc *Scenario) {
			sc.Workload.Binary = append([]Value(nil), sc.Workload.Binary...)
			sc.Workload.Binary[2] = Bot
		}},
		{"zero slots", kind(ProposalsCommands), func(sc *Scenario) { sc.Workload.Slots = 0 }},
		{"negative script delay", kind(ProposalsScripts), func(sc *Scenario) {
			sc.Workload.Scripts = append([][]ScriptOp(nil), sc.Workload.Scripts...)
			sc.Workload.Scripts[4] = []ScriptOp{ScriptRead(), {After: -time.Microsecond}}
		}},
	}
	// Every algorithm name the registry knows, and one it does not: each
	// protocol runs the ones it lists and refuses the rest.
	algos := map[string]bool{"quantum-coin": true}
	for _, info := range Protocols() {
		for _, a := range info.Algorithms {
			algos[a] = true
		}
	}
	for _, a := range slices.Sorted(maps.Keys(algos)) {
		cases = append(cases, badCase{"algorithm " + a, func(info ProtocolInfo) bool { return !slices.Contains(info.Algorithms, a) },
			func(sc *Scenario) { sc.Algorithm = a }})
	}
	for _, info := range Protocols() {
		base := Scenario{
			Protocol: info.Name,
			Topology: Topology{Partition: part, MMEdges: mmRing(n), Overlay: diffOverlay()},
			Workload: diffMatrixWorkload(n),
		}
		if _, err := Run(base); err != nil {
			t.Fatalf("%s: baseline scenario failed: %v", info.Name, err)
		}
		for _, tc := range cases {
			sc := base
			tc.mutate(&sc)
			_, err := Run(sc)
			switch {
			case tc.refused(info):
				if !errors.Is(err, protocol.ErrBadScenario) {
					t.Errorf("%s: %s: err = %v, want ErrBadScenario", info.Name, tc.name, err)
				}
			case err != nil:
				t.Errorf("%s: %s is allowed by its Info, but: %v", info.Name, tc.name, err)
			}
		}
	}
}
