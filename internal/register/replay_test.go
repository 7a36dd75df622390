package register

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// replayConfig is one determinism-suite configuration of the scripted
// register: concurrent writers with delays, a reader, and a timed crash.
func replayConfig(t *testing.T, seed int64) Config {
	t.Helper()
	part := model.Fig1Left()
	sched := failures.NewSchedule(part.N())
	if err := sched.SetTimed(6, 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	scripts := make([][]protocol.RegisterOp, part.N())
	scripts[0] = []protocol.RegisterOp{protocol.WriteOp("w0-a"), protocol.WriteOp("w0-b")}
	scripts[3] = []protocol.RegisterOp{protocol.WriteOp("w3-a"), protocol.ReadOp()}
	scripts[4] = []protocol.RegisterOp{{After: time.Millisecond}, protocol.ReadOp()}
	scripts[6] = []protocol.RegisterOp{{Write: true, Val: "late", After: 10 * time.Millisecond}} // dies first
	return Config{
		Partition: part,
		Scripts:   scripts,
		Setup: sim.Setup{
			Seed:       seed,
			Crashes:    sched,
			NetOptions: []netsim.Option{netsim.WithUniformDelay(50*time.Microsecond, 800*time.Microsecond)},
		},
	}
}

// TestReplayBitReproducible pins replay of a script the registry suite's
// register row lacks — concurrent writers, a delayed reader and a writer that
// dies before its late write, under a 50–800 µs band — and that the run
// records its traffic.
func TestReplayBitReproducible(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 42, 917} {
		res1, err1 := Run(replayConfig(t, seed))
		res2, err2 := Run(replayConfig(t, seed))
		if err := errors.Join(err1, err2); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(res1, res2) || res1.Steps == 0 {
			t.Errorf("seed %d: Results diverged or took no step:\n  run1: %+v\n  run2: %+v", seed, res1, res2)
		}
		if m := res1.Metrics; m.MsgsSent == 0 || m.Broadcasts == 0 {
			t.Errorf("seed %d: no traffic recorded: %+v", seed, m)
		}
	}
}

// TestSafetyAcrossSchedules samples the schedule space: 32 seeds, each at
// immediate delivery and under a 0–1 ms uniform band (replayable), every
// run held to protocol.Check: every operation completes, and the history is
// linearizable, so reads return written values (or the initial empty
// string) and respect their process's preceding write.
func TestSafetyAcrossSchedules(t *testing.T) {
	t.Parallel()
	scripts := make([][]protocol.RegisterOp, 7)
	scripts[1] = []protocol.RegisterOp{protocol.WriteOp("x"), protocol.ReadOp()}
	scripts[5] = []protocol.RegisterOp{protocol.ReadOp(), protocol.WriteOp("y")}
	for _, band := range []protocol.NetworkProfile{nil, protocol.Uniform(0, time.Millisecond)} {
		for seed := int64(0); seed < 32; seed++ {
			sc := protocol.Scenario{
				Protocol: ProtocolName,
				Topology: protocol.Topology{Partition: model.Fig1Right()},
				Workload: protocol.Workload{Scripts: scripts},
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

// TestScriptedMajorityCrashSurvivorOperates pins the one-for-all property
// on the scripted path: after 6 of 7 processes crash, the lone member of
// the majority cluster keeps reading and writing — deterministically,
// with the blocked/crashed accounting of the driver.
func TestScriptedMajorityCrashSurvivorOperates(t *testing.T) {
	t.Parallel()
	part := model.Fig1Right()
	survivor := model.ProcID(2) // p3 ∈ P[2], |P[2]| = 4 > 7/2
	sched := failures.NewSchedule(part.N())
	for p := 0; p < part.N(); p++ {
		if model.ProcID(p) != survivor {
			if err := sched.SetTimed(model.ProcID(p), time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	scripts := make([][]protocol.RegisterOp, part.N())
	scripts[1] = []protocol.RegisterOp{protocol.WriteOp("pre-crash")}
	scripts[survivor] = []protocol.RegisterOp{
		{After: 2 * time.Millisecond},
		protocol.WriteOp("post-crash"),
		protocol.ReadOp(),
	}
	res, err := Run(Config{Setup: sim.Setup{Seed: 6, Crashes: sched}, Partition: part, Scripts: scripts})
	if err != nil {
		t.Fatal(err)
	}
	surv := res.Procs[survivor]
	if surv.Status != sim.StatusDecided || len(surv.Ops) != 3 {
		t.Fatalf("survivor = %+v", surv)
	}
	if surv.Ops[0].Val != "pre-crash" {
		t.Errorf("survivor read %q, want pre-crash", surv.Ops[0].Val)
	}
	if surv.Ops[2].Val != "post-crash" {
		t.Errorf("survivor read %q, want post-crash", surv.Ops[2].Val)
	}
}

// TestSingletonMajorityCrashBlocks is the classic-ABD contrast: on
// singleton clusters a crashed majority blocks the survivor's operation —
// detected by quiescence, with no timeout.
func TestSingletonMajorityCrashBlocks(t *testing.T) {
	t.Parallel()
	part := model.Singletons(5)
	sched := failures.NewSchedule(5)
	for _, p := range []model.ProcID{0, 1, 2} {
		if err := sched.SetTimed(p, time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	scripts := make([][]protocol.RegisterOp, 5)
	scripts[4] = []protocol.RegisterOp{{Write: true, Val: "x", After: time.Millisecond}}
	start := time.Now()
	res, err := Run(Config{Setup: sim.Setup{Seed: 7, Crashes: sched}, Partition: part, Scripts: scripts})
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("blocked verdict took %v of real time", wall)
	}
	if got := res.Procs[4].Status; got != sim.StatusBlocked {
		t.Errorf("survivor status = %v, want blocked: %+v", got, res.Procs[4])
	}
	if len(res.Procs[4].Ops) != 1 || res.Procs[4].Ops[0].OK {
		t.Errorf("survivor ops = %+v, want one failed op", res.Procs[4].Ops)
	}
}

// TestStepPlanDoesNotShrinkLiveSet: Config.Crashes ignores step-point plans,
// so a process carrying one still operates, and the survivors must keep
// serving until it announced its script done. Here p1's write starts after
// p2's and p3's reads finished; it completes only if they still answer.
func TestStepPlanDoesNotShrinkLiveSet(t *testing.T) {
	t.Parallel()
	sched := failures.NewSchedule(3)
	if err := sched.Set(0, failures.Crash{At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}}); err != nil {
		t.Fatal(err)
	}
	scripts := [][]protocol.RegisterOp{{{Write: true, Val: "a", After: time.Millisecond}}, {protocol.ReadOp()}, {protocol.ReadOp()}}
	res, err := Run(Config{Setup: sim.Setup{Seed: 1, Crashes: sched}, Partition: model.Singletons(3), Scripts: scripts})
	if err != nil {
		t.Fatal(err)
	}
	for p, pr := range res.Procs {
		if pr.Status != sim.StatusDecided || len(pr.Ops) != 1 || !pr.Ops[0].OK {
			t.Errorf("p%d = %+v, want its one operation completed", p+1, pr)
		}
	}
}

// TestScriptValidation rejects malformed scripts.
func TestScriptValidation(t *testing.T) {
	t.Parallel()
	if _, err := Run(Config{}); err == nil {
		t.Error("nil partition accepted")
	}
	if _, err := Run(Config{Partition: model.Singletons(2), Scripts: make([][]protocol.RegisterOp, 1)}); err == nil {
		t.Error("short scripts accepted")
	}
	bad := make([][]protocol.RegisterOp, 2)
	bad[0] = []protocol.RegisterOp{{After: -time.Millisecond}}
	if _, err := Run(Config{Partition: model.Singletons(2), Scripts: bad}); err == nil {
		t.Error("negative After accepted")
	}
}
