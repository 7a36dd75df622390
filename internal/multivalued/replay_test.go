package multivalued

import (
	"reflect"
	"testing"
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// replayConfig is one determinism-suite configuration: distinct proposals,
// message delays, and a mixed (step-point + timed) crash schedule.
func replayConfig(t *testing.T, seed int64) Config {
	t.Helper()
	sched := failures.NewSchedule(7)
	if err := sched.Set(5, failures.Crash{
		At: failures.Point{Round: 2, Phase: 1, Stage: failures.StageRoundStart},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sched.SetTimed(6, 4*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return Config{
		Partition: model.Fig1Left(),
		Proposals: []string{"a", "b", "c", "d", "e", "f", "g"},
		Setup: sim.Setup{
			Seed:       seed,
			Crashes:    sched,
			NetOptions: []netsim.Option{netsim.WithUniformDelay(0, 2*time.Millisecond)},
		},
	}
}

// TestReplayBitReproducible pins the virtual-engine determinism contract
// for the multivalued reduction: identical Configs yield identical Results,
// with Steps/VirtualTime fingerprinting the entire event order.
func TestReplayBitReproducible(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 42, 917} {
		res1, err := Run(replayConfig(t, seed))
		if err != nil {
			t.Fatalf("seed %d, first run: %v", seed, err)
		}
		res2, err := Run(replayConfig(t, seed))
		if err != nil {
			t.Fatalf("seed %d, second run: %v", seed, err)
		}
		if !reflect.DeepEqual(res1, res2) {
			t.Errorf("seed %d: Results diverged:\n  run1: %+v\n  run2: %+v", seed, res1, res2)
		}
		if res1.Steps == 0 {
			t.Errorf("seed %d: virtual run reported zero steps", seed)
		}
	}
}

// TestSafetyAcrossSchedules samples the schedule space: 32 seeds, each at
// immediate delivery and under a 0–1 ms uniform band (replayable), every
// run held to protocol.Check: agreement, validity and, crash-free,
// termination.
func TestSafetyAcrossSchedules(t *testing.T) {
	t.Parallel()
	for _, band := range []protocol.NetworkProfile{nil, protocol.Uniform(0, time.Millisecond)} {
		for seed := int64(0); seed < 32; seed++ {
			sc := protocol.Scenario{
				Protocol: ProtocolName,
				Topology: protocol.Topology{Partition: model.Fig1Right()},
				Workload: protocol.Workload{Values: []string{"u", "v", "w", "x", "y", "z", "q"}},
				Profile:  band,
				Seed:     seed,
			}
			out, err := protocol.Run(sc)
			if err != nil {
				t.Fatalf("band %v seed %d: %v", band, seed, err)
			}
			if vs := protocol.Check(sc, out); vs != nil {
				t.Errorf("band %v seed %d: %v", band, seed, vs)
			}
		}
	}
}

// TestVirtualQuiescenceBlocks pins the deterministic blocked verdict for a
// dead failure pattern: the run must end at quiescence, instantly, instead
// of waiting out a wall-clock timeout.
func TestVirtualQuiescenceBlocks(t *testing.T) {
	t.Parallel()
	part := model.Fig1Right()
	sched := failures.NewSchedule(7)
	for _, p := range []model.ProcID{1, 2, 3, 4} { // wipe the majority cluster
		if err := sched.Set(p, failures.Crash{
			At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart},
		}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	res, err := Run(Config{
		Partition: part,
		Proposals: []string{"a", "b", "c", "d", "e", "f", "g"},
		Setup:     sim.Setup{Seed: 5, Crashes: sched},
	})
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("blocked verdict took %v of real time", wall)
	}
	if !res.Quiesced {
		t.Errorf("Quiesced = false, want true: %+v", res)
	}
	if _, _, decided := outcome(res).Decided(); decided {
		t.Error("decided under a dead failure pattern")
	}
}

// TestTimedCrash verifies virtual-instant failure injection: victims halt
// as crashed, survivors still decide (Fig1Left keeps a live majority
// closure), and the run stays safe.
func TestTimedCrash(t *testing.T) {
	t.Parallel()
	sched := failures.NewSchedule(7)
	if err := sched.SetTimed(3, 10*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	props := []string{"a", "b", "c", "d", "e", "f", "g"}
	res, err := Run(Config{
		Partition: model.Fig1Left(),
		Proposals: props,
		Setup: sim.Setup{
			Seed:       7,
			Crashes:    sched,
			NetOptions: []netsim.Option{netsim.WithUniformDelay(200*time.Microsecond, time.Millisecond)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs[3].Status != sim.StatusCrashed {
		t.Errorf("victim = %+v, want crashed", res.Procs[3])
	}
	out := outcome(res)
	if err := out.CheckAgreement(); err != nil {
		t.Error(err)
	}
	if err := out.CheckValidity(props); err != nil {
		t.Error(err)
	}
	if !out.AllLiveDecided() {
		t.Errorf("survivors did not all decide: %+v", res.Procs)
	}
}
