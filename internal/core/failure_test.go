package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/protocol"
	"allforone/internal/trace"
)

// The paper's flagship scenario (§III-B, §V): in Fig1Right, P[2]={p2..p5}
// holds a majority. Crash every process except one member of P[2]: the
// survivor's messages carry its whole cluster's weight ("one for all"), so
// consensus terminates although 6 of 7 processes — a large majority —
// crashed.
func TestMajorityCrashWithMajorityClusterSurvivor(t *testing.T) {
	t.Parallel()
	part := model.Fig1Right()
	for _, algo := range algorithms {
		for _, survivor := range []model.ProcID{1, 2, 3, 4} { // members of P[2]
			algo, survivor := algo, survivor
			t.Run(fmt.Sprintf("%v/survivor-%v", algo, survivor), func(t *testing.T) {
				t.Parallel()
				sched, err := failures.CrashAllExcept(7,
					failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}, survivor)
				if err != nil {
					t.Fatal(err)
				}
				if !part.LivenessHolds(sched.Crashed()) {
					t.Fatal("test setup wrong: liveness should hold")
				}
				res := runAndCheck(t, protocol.Scenario{
					Topology:  protocol.Topology{Partition: part},
					Workload:  protocol.Workload{Binary: unanimous(7, model.One)},
					Algorithm: algo,
					Seed:      int64(survivor),
					Faults:    sched,
					Trace:     trace.New(),
					Bounds:    protocol.Bounds{MaxRounds: 100},
				})
				if !outcome(res).AllLiveDecided() {
					t.Fatalf("survivor did not decide: %+v", res.Procs)
				}
				val, count, _ := outcome(res).Decided()
				if count != 1 {
					t.Errorf("decided count = %d, want 1 (only the survivor)", count)
				}
				if val != model.One.String() {
					t.Errorf("decided %v, want 1", val)
				}
				if crashes := outcome(res).CountStatus(StatusCrashed); crashes != 6 {
					t.Errorf("crashed count = %d, want 6", crashes)
				}
			})
		}
	}
}

// Without the hybrid model's cluster closure the same failure pattern is
// hopeless: with singleton clusters (pure message passing), crashing 6 of 7
// violates the majority-of-correct-processes requirement and the survivor
// must block — but never decide wrongly (indulgence).
func TestMajorityCrashBlocksPureMessagePassing(t *testing.T) {
	t.Parallel()
	sched, err := failures.CrashAllExcept(7,
		failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}, 2)
	if err != nil {
		t.Fatal(err)
	}
	part := model.Singletons(7)
	if part.LivenessHolds(sched.Crashed()) {
		t.Fatal("test setup wrong: liveness should not hold")
	}
	res, err := RunVariant(protocol.Scenario{
		Topology:  protocol.Topology{Partition: part},
		Workload:  protocol.Workload{Binary: unanimous(7, model.One)},
		Algorithm: AlgoLocalCoin,
		Seed:      1,
		Faults:    sched,
	}, Hybrid)
	if err != nil {
		t.Fatalf("RunVariant: %v", err)
	}
	if _, _, decided := outcome(res).Decided(); decided {
		t.Fatal("a process decided although liveness cannot hold")
	}
	if res.Procs[2].Status != StatusBlocked {
		t.Errorf("survivor status = %v, want blocked", res.Procs[2].Status)
	}
}

// Indulgence (§III-B): when the liveness condition fails, the algorithm may
// not terminate, but it must never terminate with an incorrect result.
// Wipe the majority cluster of Fig1Right; the three survivors cover only
// 3 ≤ n/2 processes.
func TestIndulgenceUnderDeadFailurePattern(t *testing.T) {
	t.Parallel()
	part := model.Fig1Right()
	sched, err := failures.CrashAllExcept(7, failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}, 0, 5, 6) // all of P[2]
	if err != nil {
		t.Fatal(err)
	}
	if part.LivenessHolds(sched.Crashed()) {
		t.Fatal("test setup wrong: liveness should not hold")
	}
	for _, algo := range algorithms {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			res, err := RunVariant(protocol.Scenario{
				Topology:  protocol.Topology{Partition: part},
				Workload:  protocol.Workload{Binary: alternating(7)},
				Algorithm: algo,
				Seed:      11,
				Faults:    sched,
				Trace:     trace.New(),
			}, Hybrid)
			if err != nil {
				t.Fatalf("RunVariant: %v", err)
			}
			if err := outcome(res).CheckAgreement(); err != nil {
				t.Fatal(err)
			}
			if err := outcome(res).CheckValidity(rendered(alternating(7))); err != nil {
				t.Fatal(err)
			}
			if _, _, decided := outcome(res).Decided(); decided {
				t.Fatal("decided although survivors cover ≤ n/2 processes")
			}
			for _, p := range []model.ProcID{0, 5, 6} {
				if res.Procs[p].Status != StatusBlocked {
					t.Errorf("survivor %v status = %v, want blocked", p, res.Procs[p].Status)
				}
			}
		})
	}
}

// Crashes at every step point of round 1 or 2: safety must hold in every
// case, and when the failure pattern keeps liveness, everyone alive must
// decide.
func TestCrashAtEveryStage(t *testing.T) {
	t.Parallel()
	part := model.Fig1Left()
	stages := []failures.Stage{
		failures.StageRoundStart,
		failures.StageAfterClusterConsensus,
		failures.StageMidBroadcast,
		failures.StageAfterExchange,
		failures.StageBeforeDecide,
	}
	for _, algo := range algorithms {
		for _, stage := range stages {
			for round := 1; round <= 2; round++ {
				algo, stage, round := algo, stage, round
				t.Run(fmt.Sprintf("%v/%v/round-%d", algo, stage, round), func(t *testing.T) {
					t.Parallel()
					// Crash p4 and p6 (different clusters); P[1] keeps all
					// three members, so liveness holds: 3+2>7/2? No: covered
					// clusters P[1](3) + P[2](1 of 2 → counts 2) + P[3](1 of
					// 2 → counts 2) = 7 > 3.5. (Each cluster keeps ≥1 alive.)
					sched := failures.NewSchedule(7)
					for _, p := range []model.ProcID{3, 5} {
						if err := sched.Set(p, failures.Crash{
							At: failures.Point{Round: round, Phase: 1, Stage: stage},
						}); err != nil {
							t.Fatal(err)
						}
					}
					if !part.LivenessHolds(sched.Crashed()) {
						t.Fatal("test setup wrong: liveness should hold")
					}
					res := runAndCheck(t, protocol.Scenario{
						Topology:  protocol.Topology{Partition: part},
						Workload:  protocol.Workload{Binary: alternating(7)},
						Algorithm: algo,
						Seed:      int64(round*100) + int64(stage),
						Faults:    sched,
						Trace:     trace.New(),
						Bounds:    protocol.Bounds{MaxRounds: 5000},
					})
					if !outcome(res).AllLiveDecided() {
						t.Fatalf("liveness violated: %+v", res.Procs)
					}
				})
			}
		}
	}
}

// A mid-broadcast crash delivers to an explicit subset; the survivors'
// accounting must stay consistent (safety) and the run must terminate
// (liveness holds — the crashed process's cluster keeps a survivor).
func TestPartialBroadcastExplicitSubset(t *testing.T) {
	t.Parallel()
	part := model.Fig1Left()
	sched := failures.NewSchedule(7)
	// p2 crashes while broadcasting round 1 phase 1; only p4 and p7 get it.
	if err := sched.Set(1, failures.Crash{
		At:        failures.Point{Round: 1, Phase: 1, Stage: failures.StageMidBroadcast},
		DeliverTo: []model.ProcID{3, 6},
	}); err != nil {
		t.Fatal(err)
	}
	res := runAndCheck(t, protocol.Scenario{
		Topology:  protocol.Topology{Partition: part},
		Workload:  protocol.Workload{Binary: alternating(7)},
		Algorithm: AlgoLocalCoin,
		Seed:      4,
		Faults:    sched,
		Trace:     trace.New(),
		Bounds:    protocol.Bounds{MaxRounds: 5000},
	})
	if !outcome(res).AllLiveDecided() {
		t.Fatalf("not all live processes decided: %+v", res.Procs)
	}
	if res.Procs[1].Status != StatusCrashed {
		t.Errorf("p2 status = %v, want crashed", res.Procs[1].Status)
	}
}

// A process crashing during the DECIDE broadcast delivers DECIDE to a
// subset only; recipients rebroadcast (line 17), so agreement and
// termination survive.
func TestPartialDecideBroadcast(t *testing.T) {
	t.Parallel()
	part := model.Fig1Left()
	sched := failures.NewSchedule(7)
	if err := sched.Set(0, failures.Crash{
		At:        failures.Point{Round: 1, Phase: 2, Stage: failures.StageBeforeDecide},
		DeliverTo: []model.ProcID{5},
	}); err != nil {
		t.Fatal(err)
	}
	res := runAndCheck(t, protocol.Scenario{
		Topology:  protocol.Topology{Partition: part},
		Workload:  protocol.Workload{Binary: unanimous(7, model.Zero)},
		Algorithm: AlgoLocalCoin,
		Seed:      8,
		Faults:    sched,
		Bounds:    protocol.Bounds{MaxRounds: 5000},
	})
	if !outcome(res).AllLiveDecided() {
		t.Fatalf("not all live processes decided: %+v", res.Procs)
	}
	val, count, _ := outcome(res).Decided()
	if val != model.Zero.String() || count != 6 {
		t.Errorf("decided (%v, %d), want (0, 6)", val, count)
	}
}

// Random crash storms: safety must hold in every trial; termination must
// hold whenever the generated pattern satisfies the liveness condition.
func TestRandomCrashStorms(t *testing.T) {
	t.Parallel()
	partitions := []*model.Partition{
		model.Fig1Left(),
		model.Fig1Right(),
		model.Singletons(6),
		model.MustPartition([][]int{{0, 1, 2, 3}, {4, 5}, {6, 7, 8}}),
	}
	rng := rand.New(rand.NewPCG(2024, 6))
	for trial := 0; trial < 24; trial++ {
		part := partitions[trial%len(partitions)]
		algo := algorithms[trial%2]
		n := part.N()
		k := rng.IntN(n) // 0 .. n-1 crashes
		sched, err := failures.GenRandom(rng, n, k, 3, phases(algo))
		if err != nil {
			t.Fatal(err)
		}
		props := make([]model.Value, n)
		for i := range props {
			props[i] = model.BitToValue(rng.Uint64())
		}
		sc := protocol.Scenario{
			Topology:  protocol.Topology{Partition: part},
			Workload:  protocol.Workload{Binary: props},
			Algorithm: algo,
			Seed:      int64(trial) * 7919,
			Faults:    sched,
			Trace:     trace.New(),
			Bounds:    protocol.Bounds{MaxRounds: 5000},
		}
		res, err := RunVariant(sc, Hybrid)
		if err != nil {
			t.Fatalf("trial %d: RunVariant: %v", trial, err)
		}
		if vs := violations(sc, res); vs != nil {
			t.Fatalf("trial %d (algo %v, part %v, crashes %v): %v",
				trial, algo, part, sched.Crashed(), vs)
		}
	}
}
