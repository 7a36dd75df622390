package smr

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

// replayConfig is one determinism-suite configuration: a 3-slot log with
// per-replica command queues, message delays, and a mixed (step-point +
// timed) crash schedule.
func replayConfig(t *testing.T, seed int64) Config {
	t.Helper()
	part := model.Fig1Left()
	sched := failures.NewSchedule(part.N())
	if err := sched.Set(6, failures.Crash{
		At: failures.Point{Round: 3, Phase: 1, Stage: failures.StageRoundStart},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sched.SetTimed(5, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cmds := make([][]string, part.N())
	for i := range cmds {
		cmds[i] = []string{"cmd-" + string(rune('a'+i))}
	}
	return Config{
		Partition: part,
		Commands:  cmds,
		Slots:     3,
		Setup: sim.Setup{
			Seed:       seed,
			Crashes:    sched,
			NetOptions: []netsim.Option{netsim.WithUniformDelay(0, time.Millisecond)},
		},
	}
}

// TestReplayBitReproducible pins the virtual-engine determinism contract
// for the replicated log: identical Configs yield identical Results, with
// Steps/VirtualTime fingerprinting the entire event order.
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
// run held to protocol.Check: log agreement, validity and, crash-free, every
// replica completing the log.
func TestSafetyAcrossSchedules(t *testing.T) {
	t.Parallel()
	cmds := make([][]string, 7)
	for i := range cmds {
		cmds[i] = []string{"op-" + string(rune('a'+i))}
	}
	for _, band := range []protocol.NetworkProfile{nil, protocol.Uniform(0, time.Millisecond)} {
		for seed := int64(0); seed < 32; seed++ {
			sc := protocol.Scenario{
				Protocol: ProtocolName,
				Topology: protocol.Topology{Partition: model.Fig1Right()},
				Workload: protocol.Workload{Commands: cmds, Slots: 2},
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

// TestVirtualQuiescenceBlocks pins the deterministic blocked verdict: with
// the majority cluster wiped the log cannot advance, and the virtual
// engine must say so at quiescence, instantly.
func TestVirtualQuiescenceBlocks(t *testing.T) {
	t.Parallel()
	part := model.Fig1Right()
	sched := failures.NewSchedule(part.N())
	for _, p := range []model.ProcID{1, 2, 3, 4} {
		if err := sched.Set(p, failures.Crash{
			At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart},
		}); err != nil {
			t.Fatal(err)
		}
	}
	cmds := make([][]string, part.N())
	start := time.Now()
	res, err := Run(Config{
		Partition: part,
		Commands:  cmds,
		Slots:     1,
		Setup:     sim.Setup{Seed: 3, Crashes: sched},
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
	for i, rep := range res.Replicas {
		if rep.Status == sim.StatusDecided {
			t.Errorf("replica %d decided under a dead failure pattern: %+v", i, rep)
		}
	}
	if err := res.CheckLogAgreement(); err != nil {
		t.Error(err)
	}
}
