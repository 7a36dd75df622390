package register

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// scenario is a scripted register run on part.
func scenario(part *model.Partition, scripts [][]protocol.RegisterOp, seed int64) protocol.Scenario {
	return protocol.Scenario{
		Protocol: ProtocolName,
		Topology: protocol.Topology{Partition: part},
		Workload: protocol.Workload{Scripts: scripts},
		Seed:     seed,
	}
}

// run runs sc through the registry and returns the register's raw result.
func run(t *testing.T, sc protocol.Scenario) *Result {
	t.Helper()
	out, err := protocol.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out.Raw.(*Result)
}

// replayConfig is one determinism-suite configuration of the scripted
// register: concurrent writers with delays, a reader, and a timed crash.
func replayConfig(t *testing.T, seed int64) protocol.Scenario {
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
	sc := scenario(part, scripts, seed)
	sc.Faults, sc.Profile = sched, protocol.Uniform(50*time.Microsecond, 800*time.Microsecond)
	return sc
}

// TestReplayBitReproducible pins replay of a script the registry suite's
// register row lacks — concurrent writers, a delayed reader and a writer that
// dies before its late write, under a 50–800 µs band — and that the run
// records its traffic.
func TestReplayBitReproducible(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 42, 917} {
		res1, res2 := run(t, replayConfig(t, seed)), run(t, replayConfig(t, seed))
		if !reflect.DeepEqual(res1, res2) || res1.Steps == 0 {
			t.Errorf("seed %d: Results diverged or took no step:\n  run1: %+v\n  run2: %+v", seed, res1, res2)
		}
		if m := res1.Metrics; m.MsgsSent == 0 || m.Broadcasts == 0 {
			t.Errorf("seed %d: no traffic recorded: %+v", seed, m)
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
	sc := scenario(part, scripts, 6)
	sc.Faults = sched
	surv := run(t, sc).Procs[survivor]
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
	sc := scenario(part, scripts, 7)
	sc.Faults = sched
	res := run(t, sc)
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

// TestStepPlanDoesNotShrinkLiveSet: the registry rejects step-point plans
// for the register, and the adapter, handed one anyway, ignores it: a
// process carrying one still operates, and the survivors must keep serving
// until it announced its script done. Here p1's write starts after p2's
// and p3's reads finished; it completes only if they still answer.
func TestStepPlanDoesNotShrinkLiveSet(t *testing.T) {
	t.Parallel()
	sched := failures.NewSchedule(3)
	if err := sched.Set(0, failures.Crash{At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}}); err != nil {
		t.Fatal(err)
	}
	scripts := [][]protocol.RegisterOp{{{Write: true, Val: "a", After: time.Millisecond}}, {protocol.ReadOp()}, {protocol.ReadOp()}}
	sc := scenario(model.Singletons(3), scripts, 1)
	sc.Faults = sched
	if _, err := protocol.Run(sc); !errors.Is(err, protocol.ErrBadScenario) {
		t.Fatalf("registry error = %v, want ErrBadScenario", err)
	}
	out, err := runScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	for p, pr := range out.Raw.(*Result).Procs {
		if pr.Status != sim.StatusDecided || len(pr.Ops) != 1 || !pr.Ops[0].OK {
			t.Errorf("p%d = %+v, want its one operation completed", p+1, pr)
		}
	}
}

// TestScriptValidation rejects malformed scripts.
func TestScriptValidation(t *testing.T) {
	t.Parallel()
	noPartition := scenario(nil, make([][]protocol.RegisterOp, 1), 0)
	noPartition.Topology.N = 1
	if _, err := protocol.Run(noPartition); !errors.Is(err, protocol.ErrBadScenario) {
		t.Errorf("nil partition error = %v", err)
	}
	if _, err := protocol.Run(scenario(model.Singletons(2), make([][]protocol.RegisterOp, 1), 0)); !errors.Is(err, protocol.ErrBadScenario) {
		t.Errorf("short scripts error = %v", err)
	}
	bad := make([][]protocol.RegisterOp, 2)
	bad[0] = []protocol.RegisterOp{{After: -time.Millisecond}}
	if _, err := protocol.Run(scenario(model.Singletons(2), bad, 0)); !errors.Is(err, protocol.ErrBadScenario) {
		t.Errorf("negative After error = %v", err)
	}
}
