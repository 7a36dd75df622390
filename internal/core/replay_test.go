package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/sim"
	"allforone/internal/trace"
)

// replayCase is one (algorithm, crash plan, delays) configuration of the
// determinism suite; plan writes the crashes into an n = 7 schedule.
type replayCase struct {
	name   string
	algo   Algorithm
	delays time.Duration
	plan   func(s *failures.Schedule) error
}

func replayCases() []replayCase {
	midBroadcast := func(s *failures.Schedule) error {
		return errors.Join(
			s.Set(3, failures.Crash{At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageMidBroadcast}}),
			s.Set(5, failures.Crash{At: failures.Point{Round: 2, Phase: 1, Stage: failures.StageBeforeDecide}}))
	}
	majorityCrash := func(s *failures.Schedule) error { // all but p3
		var err error
		for _, p := range []model.ProcID{0, 1, 3, 4, 5, 6} {
			err = errors.Join(err, s.Set(p, failures.Crash{At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}}))
		}
		return err
	}
	timed := func(s *failures.Schedule) error {
		return errors.Join(s.SetTimed(1, 2*time.Millisecond), s.SetTimed(4, 5*time.Millisecond))
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

// config builds the Config of one determinism run. The trace log is fresh
// per run; everything else is identical across replays.
func (rc replayCase) config(t *testing.T, seed int64, log *trace.Log) Config {
	t.Helper()
	cfg := Config{
		Partition: model.Fig1Left(),
		Proposals: []model.Value{model.One, model.Zero, model.One, model.Zero, model.One, model.Zero, model.One},
		Algorithm: rc.algo,
		Setup: sim.Setup{
			Seed:       seed,
			NetOptions: []netsim.Option{netsim.WithUniformDelay(0, rc.delays)},
		},
		MaxRounds: 10_000,
		Trace:     log,
	}
	if rc.plan != nil {
		cfg.Crashes = failures.NewSchedule(7)
		if err := rc.plan(cfg.Crashes); err != nil {
			t.Fatal(err)
		}
	}
	return cfg
}

// TestReplayBitReproducible pins what the registry suite's hybrid row does
// not replay: identical trace event sequences beside identical Results, for
// both algorithms (the suite runs the default), on Fig1Left with
// step-point, majority and timed crash schedules and 0–4 ms delays.
func TestReplayBitReproducible(t *testing.T) {
	t.Parallel()
	for _, rc := range replayCases() {
		rc := rc
		t.Run(rc.algo.String()+"/"+rc.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 42, 917} {
				log1, log2 := trace.New(), trace.New()
				res1, err1 := Run(rc.config(t, seed, log1))
				res2, err2 := Run(rc.config(t, seed, log2))
				if err := errors.Join(err1, err2); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
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
		Setup:     sim.Setup{Seed: 11, Crashes: sched},
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
	if got := outcome(res).CountStatus(sim.StatusBlocked); got != 3 {
		t.Errorf("blocked = %d, want 3 survivors blocked: %+v", got, res.Procs)
	}
	if got := outcome(res).CountStatus(sim.StatusCrashed); got != 4 {
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
	if err := errors.Join(sched.SetTimed(1, 10*time.Microsecond), sched.SetTimed(6, 150*time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Partition: model.Fig1Left(),
		Proposals: alternating(7),
		Algorithm: CommonCoin,
		Setup: sim.Setup{
			Seed:       7,
			Crashes:    sched,
			NetOptions: []netsim.Option{netsim.WithUniformDelay(200*time.Microsecond, time.Millisecond)},
		},
		MaxRounds: 10_000,
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
						Setup: sim.Setup{
							Seed:       seed,
							NetOptions: []netsim.Option{netsim.WithUniformDelay(0, maxDelay)},
						},
						MaxRounds: 10_000,
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
		Setup: sim.Setup{
			Seed:       5,
			NetOptions: []netsim.Option{netsim.WithUniformDelay(time.Millisecond, 10*time.Millisecond)},
		},
		MaxRounds: 10_000,
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
		Setup: sim.Setup{
			Seed:       21,
			Crashes:    sched,
			NetOptions: []netsim.Option{netsim.WithUniformDelay(0, time.Millisecond)},
		},
		MaxRounds: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !outcome(res).AllLiveDecided() {
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
