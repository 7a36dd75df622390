package mm

import (
	"reflect"
	"testing"
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// replayConfig is one determinism-suite configuration over the appendix
// graph, with delays and a mixed (step-point + timed) crash schedule.
func replayConfig(t *testing.T, seed int64) Config {
	t.Helper()
	g := Fig2()
	sched := failures.NewSchedule(g.N())
	if err := sched.Set(1, failures.Crash{
		At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageMidBroadcast},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sched.SetTimed(4, 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph:     g,
		Proposals: []model.Value{model.One, model.Zero, model.One, model.Zero, model.One},
		Seed:      seed,
		Crashes:   sched,
		MaxRounds: 10_000,
		MaxDelay:  2 * time.Millisecond,
	}
}

// TestReplayBitReproducible pins the virtual-engine determinism contract
// for the m&m comparator: identical Configs yield identical Results —
// including the step count and virtual clock, which fingerprint the entire
// event order.
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
				Topology: protocol.Topology{N: 5, MMEdges: Fig2().EdgeList()},
				Workload: protocol.Workload{Binary: []model.Value{model.One, model.Zero, model.One, model.Zero, model.One}},
				Bounds:   protocol.Bounds{MaxRounds: 10_000},
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
// a crashed majority no survivor can collect enough reports, and the
// virtual engine must flag quiescence rather than wait out a timeout.
func TestVirtualQuiescenceBlocks(t *testing.T) {
	t.Parallel()
	g := Fig2()
	sched, err := failures.CrashAllExcept(g.N(),
		failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := Run(Config{
		Graph:     g,
		Proposals: []model.Value{model.One, model.One, model.One, model.One, model.One},
		Seed:      9,
		Crashes:   sched,
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
	if got := res.CountStatus(sim.StatusBlocked); got != 2 {
		t.Errorf("blocked = %d, want 2: %+v", got, res.Procs)
	}
}
