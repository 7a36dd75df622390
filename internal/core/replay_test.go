package core

import (
	"reflect"
	"testing"
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/sim"
	"allforone/internal/trace"
)

// replayCase is one (algorithm, crash schedule, delays) configuration of
// the determinism suite.
type replayCase struct {
	name    string
	algo    Algorithm
	delays  time.Duration
	crashes func(t *testing.T) *failures.Schedule
}

func replayCases(t *testing.T) []replayCase {
	t.Helper()
	midBroadcast := func(t *testing.T) *failures.Schedule {
		t.Helper()
		s := failures.NewSchedule(7)
		if err := s.Set(3, failures.Crash{
			At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageMidBroadcast},
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Set(5, failures.Crash{
			At: failures.Point{Round: 2, Phase: 1, Stage: failures.StageBeforeDecide},
		}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	majorityCrash := func(t *testing.T) *failures.Schedule {
		t.Helper()
		s, err := failures.CrashAllExcept(7,
			failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	timed := func(t *testing.T) *failures.Schedule {
		t.Helper()
		s := failures.NewSchedule(7)
		if err := s.SetTimed(1, 2*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := s.SetTimed(4, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		return s
	}
	return []replayCase{
		{"crash-free/zero-delay", LocalCoin, 0, nil},
		{"crash-free/zero-delay", CommonCoin, 0, nil},
		{"crash-free/delays", LocalCoin, 3 * time.Millisecond, nil},
		{"crash-free/delays", CommonCoin, 3 * time.Millisecond, nil},
		{"mid-broadcast+before-decide", LocalCoin, time.Millisecond, midBroadcast},
		{"mid-broadcast+before-decide", CommonCoin, time.Millisecond, midBroadcast},
		{"majority-crash", LocalCoin, time.Millisecond, majorityCrash},
		{"majority-crash", CommonCoin, time.Millisecond, majorityCrash},
		{"timed-crashes", LocalCoin, 4 * time.Millisecond, timed},
		{"timed-crashes", CommonCoin, 4 * time.Millisecond, timed},
	}
}

// replayConfig builds the Config of one determinism run. The trace log is
// fresh per run; everything else is identical across replays.
func (rc replayCase) config(t *testing.T, seed int64, log *trace.Log) Config {
	t.Helper()
	cfg := Config{
		Partition: model.Fig1Left(),
		Proposals: []model.Value{model.One, model.Zero, model.One, model.Zero, model.One, model.Zero, model.One},
		Algorithm: rc.algo,
		Seed:      seed,
		MaxRounds: 10_000,
		MaxDelay:  rc.delays,
		Trace:     log,
	}
	if rc.crashes != nil {
		cfg.Crashes = rc.crashes(t)
	}
	return cfg
}

// TestReplayBitReproducible is the determinism contract of the virtual
// engine: two runs with identical Configs produce identical Result structs
// and identical trace event sequences — for both algorithms, across crash
// schedules (step-point, majority, and timed) and message delays.
func TestReplayBitReproducible(t *testing.T) {
	t.Parallel()
	for _, rc := range replayCases(t) {
		rc := rc
		t.Run(rc.algo.String()+"/"+rc.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 42, 917} {
				log1, log2 := trace.New(), trace.New()
				res1, err := Run(rc.config(t, seed, log1))
				if err != nil {
					t.Fatalf("seed %d, first run: %v", seed, err)
				}
				res2, err := Run(rc.config(t, seed, log2))
				if err != nil {
					t.Fatalf("seed %d, second run: %v", seed, err)
				}
				if !reflect.DeepEqual(res1, res2) {
					t.Errorf("seed %d: Results diverged:\n  run1: %+v\n  run2: %+v", seed, res1, res2)
				}
				ev1, ev2 := log1.Events(), log2.Events()
				if !reflect.DeepEqual(ev1, ev2) {
					t.Errorf("seed %d: traces diverged (%d vs %d events)", seed, len(ev1), len(ev2))
					for i := 0; i < len(ev1) && i < len(ev2); i++ {
						if ev1[i] != ev2[i] {
							t.Errorf("  first divergence at #%d: %v vs %v", i, ev1[i], ev2[i])
							break
						}
					}
				}
			}
		})
	}
}

// TestReplaySeedSensitivity sanity-checks that the determinism above is not
// vacuous: different seeds must produce different executions (at least one
// differing trace across a handful of seeds).
func TestReplaySeedSensitivity(t *testing.T) {
	t.Parallel()
	var lens []int
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		log := trace.New()
		if _, err := Run(Config{
			Partition: model.Fig1Left(),
			Proposals: alternating(7),
			Algorithm: CommonCoin,
			Seed:      seed,
			MaxRounds: 10_000,
			MaxDelay:  2 * time.Millisecond,
			Trace:     log,
		}); err != nil {
			t.Fatal(err)
		}
		lens = append(lens, log.Len())
	}
	same := true
	for _, l := range lens[1:] {
		if l != lens[0] {
			same = false
		}
	}
	if same {
		t.Logf("all 5 seeds produced %d events — suspicious but not impossible", lens[0])
	}
}

// TestVirtualQuiescenceBlocks pins the deterministic blocked verdict: with
// too many crashes for the liveness condition (no surviving-cluster set
// covering a majority), the virtual engine must detect quiescence — no
// wall-clock timeout involved — and mark undecided processes blocked.
func TestVirtualQuiescenceBlocks(t *testing.T) {
	t.Parallel()
	// Singletons: pure message passing. Crash 4 of 7 at round start —
	// a majority can never be covered, every survivor waits forever.
	sched, err := failures.CrashAllExcept(7,
		failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := Run(Config{
		Partition: model.Singletons(7),
		Proposals: unanimous(7, model.One),
		Algorithm: CommonCoin,
		Seed:      11,
		Crashes:   sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("blocked verdict took %v of real time; quiescence detection should be immediate", wall)
	}
	if !res.Quiesced {
		t.Errorf("Quiesced = false, want true: %+v", res)
	}
	if got := res.CountStatus(sim.StatusBlocked); got != 3 {
		t.Errorf("blocked = %d, want 3 survivors blocked: %+v", got, res.Procs)
	}
	if got := res.CountStatus(sim.StatusCrashed); got != 4 {
		t.Errorf("crashed = %d, want 4: %+v", got, res.Procs)
	}
}

// TestTimedCrash verifies virtual-instant failure injection: the victims
// halt as crashed (not blocked), take no steps after their crash event, and
// the run stays safe.
func TestTimedCrash(t *testing.T) {
	t.Parallel()
	sched := failures.NewSchedule(7)
	// Both instants precede the earliest possible decision: with MinDelay
	// 200µs no exchange can complete — so no process can decide — before
	// 200µs of virtual time.
	if err := sched.SetTimed(1, 10*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := sched.SetTimed(6, 150*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Partition: model.Fig1Left(),
		Proposals: alternating(7),
		Algorithm: CommonCoin,
		Seed:      7,
		MaxRounds: 10_000,
		MinDelay:  200 * time.Microsecond,
		MaxDelay:  time.Millisecond,
		Crashes:   sched,
		Trace:     trace.New(),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range []model.ProcID{1, 6} {
		if res.Procs[pid].Status != StatusCrashed {
			t.Errorf("proc %v = %+v, want crashed", pid, res.Procs[pid])
		}
	}
	// Fig1Left keeps a surviving majority closure (P[1] whole + P[2] whole
	// covers 5 of 7), so Check demands that the survivors decide too.
	if vs := violations(cfg, res); vs != nil {
		t.Error(vs)
	}
}

// TestSafetyAcrossSchedules samples the schedule space the asynchronous
// model quantifies over: 32 seeds, each at immediate delivery and under a
// 0–1 ms uniform band. Every run must pass protocol.Check — crash-free, so
// that includes deciding everywhere. Every schedule is replayable: a failing
// (seed, band) is its own repro.
func TestSafetyAcrossSchedules(t *testing.T) {
	t.Parallel()
	for _, algo := range []Algorithm{LocalCoin, CommonCoin} {
		t.Run(algo.String(), func(t *testing.T) {
			t.Parallel()
			for _, maxDelay := range []time.Duration{0, time.Millisecond} {
				for seed := int64(0); seed < 32; seed++ {
					runAndCheck(t, Config{
						Partition: model.Fig1Right(),
						Proposals: alternating(7),
						Algorithm: algo,
						Seed:      seed,
						MaxRounds: 10_000,
						MaxDelay:  maxDelay,
					})
				}
			}
		})
	}
}

// TestVirtualElapsedIsVirtual pins the Result time semantics of the virtual
// engine: Elapsed equals VirtualTime, and with delayed messages the virtual
// clock advanced even though (almost) no wall-clock time passed.
func TestVirtualElapsedIsVirtual(t *testing.T) {
	t.Parallel()
	start := time.Now()
	res, err := Run(Config{
		Partition: model.Fig1Left(),
		Proposals: alternating(7),
		Algorithm: CommonCoin,
		Seed:      5,
		MaxRounds: 10_000,
		MinDelay:  time.Millisecond,
		MaxDelay:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if res.Elapsed != res.VirtualTime {
		t.Errorf("Elapsed %v != VirtualTime %v", res.Elapsed, res.VirtualTime)
	}
	if res.VirtualTime <= 0 {
		t.Errorf("VirtualTime = %v, want > 0 with delayed messages", res.VirtualTime)
	}
	if res.Steps <= 0 {
		t.Errorf("Steps = %d, want > 0", res.Steps)
	}
	// The whole point: simulating milliseconds of transit must not take
	// milliseconds-per-message of real time. Allow generous CI slack.
	if wall > 2*time.Second {
		t.Errorf("virtual run took %v of wall clock", wall)
	}
}

// TestTimedCrashAfterTerminationHarmless pins the run-duration semantics:
// a timed crash scheduled long after every process has decided must not
// fire, not mark anyone crashed, and — the regression — not drag the
// virtual clock (Result.Elapsed/VirtualTime) out to the crash instant.
func TestTimedCrashAfterTerminationHarmless(t *testing.T) {
	t.Parallel()
	sched := failures.NewSchedule(7)
	if err := sched.SetTimed(2, time.Hour); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Partition: model.Fig1Left(),
		Proposals: unanimous(7, model.One),
		Algorithm: CommonCoin,
		Seed:      21,
		MaxRounds: 10_000,
		MaxDelay:  time.Millisecond,
		Crashes:   sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllLiveDecided() {
		t.Fatalf("not all decided: %+v", res.Procs)
	}
	if res.Procs[2].Status != StatusDecided {
		t.Errorf("proc p3 = %+v, want decided (crash instant never reached)", res.Procs[2])
	}
	if res.VirtualTime >= time.Hour || res.Elapsed >= time.Hour {
		t.Errorf("run duration inflated to the unfired crash instant: Elapsed=%v VirtualTime=%v",
			res.Elapsed, res.VirtualTime)
	}
}
