package register

import (
	"reflect"
	"testing"
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
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
	scripts := make([][]Op, part.N())
	scripts[0] = []Op{WriteOp("w0-a"), WriteOp("w0-b")}
	scripts[3] = []Op{WriteOp("w3-a"), ReadOp()}
	scripts[4] = []Op{{Kind: OpRead, After: time.Millisecond}, ReadOp()}
	scripts[6] = []Op{{Kind: OpWrite, Val: "late", After: 10 * time.Millisecond}} // dies first
	return Config{
		Partition: part,
		Scripts:   scripts,
		Seed:      seed,
		Crashes:   sched,
		MinDelay:  50 * time.Microsecond,
		MaxDelay:  800 * time.Microsecond,
	}
}

// TestReplayBitReproducible pins the virtual-engine determinism contract
// for the scripted register: identical Configs yield identical Results —
// every read's value, every status, and the Steps/VirtualTime fingerprint
// of the event order.
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
		if m := res1.Metrics; m.MsgsSent == 0 || m.Broadcasts == 0 {
			t.Errorf("seed %d: no traffic recorded: %+v", seed, m)
		}
	}
}

// TestSafetyAcrossSchedules samples the schedule space — 32 seeds, each at
// immediate delivery and under a 0–1 ms uniform band (replayable): reads
// only return written values (or the initial empty string), writes
// complete, and a process's own reads respect its preceding write.
func TestSafetyAcrossSchedules(t *testing.T) {
	t.Parallel()
	part := model.Fig1Right()
	for _, maxDelay := range []time.Duration{0, time.Millisecond} {
		for seed := int64(0); seed < 32; seed++ {
			scripts := make([][]Op, part.N())
			scripts[1] = []Op{WriteOp("x"), ReadOp()}
			scripts[5] = []Op{ReadOp(), WriteOp("y")}
			res, err := Run(Config{
				Partition: part,
				Scripts:   scripts,
				Seed:      seed,
				MaxDelay:  maxDelay,
			})
			if err != nil {
				t.Fatalf("band %v seed %d: %v", maxDelay, seed, err)
			}
			valid := map[string]bool{"": true, "x": true, "y": true}
			for p, pr := range res.Procs {
				if pr.Status != sim.StatusDecided {
					t.Errorf("band %v seed %d: proc %d = %+v, want decided", maxDelay, seed, p, pr)
				}
				for _, op := range pr.Ops {
					if !op.OK {
						t.Errorf("band %v seed %d: proc %d op failed: %+v", maxDelay, seed, p, op)
					}
					if op.Kind == OpRead && !valid[op.Val] {
						t.Errorf("band %v seed %d: proc %d read %q, never written", maxDelay, seed, p, op.Val)
					}
				}
			}
			// Read-your-write: p2's read follows its own completed write, so
			// it can never observe the initial empty value again (it may see
			// p6's concurrent, newer "y").
			if ops := res.Procs[1].Ops; len(ops) == 2 && ops[1].OK && ops[1].Val == "" {
				t.Errorf("band %v seed %d: read-your-write violated: %+v", maxDelay, seed, ops)
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
	scripts := make([][]Op, part.N())
	scripts[1] = []Op{WriteOp("pre-crash")}
	scripts[survivor] = []Op{
		{Kind: OpRead, After: 2 * time.Millisecond},
		WriteOp("post-crash"),
		ReadOp(),
	}
	res, err := Run(Config{Partition: part, Scripts: scripts, Seed: 6, Crashes: sched})
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
	scripts := make([][]Op, 5)
	scripts[4] = []Op{{Kind: OpWrite, Val: "x", After: time.Millisecond}}
	start := time.Now()
	res, err := Run(Config{Partition: part, Scripts: scripts, Seed: 7, Crashes: sched})
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

// TestScriptValidation rejects malformed scripts.
func TestScriptValidation(t *testing.T) {
	t.Parallel()
	if _, err := Run(Config{}); err == nil {
		t.Error("nil partition accepted")
	}
	if _, err := Run(Config{Partition: model.Singletons(2), Scripts: make([][]Op, 1)}); err == nil {
		t.Error("short scripts accepted")
	}
	bad := make([][]Op, 2)
	bad[0] = []Op{{Kind: OpKind(9)}}
	if _, err := Run(Config{Partition: model.Singletons(2), Scripts: bad}); err == nil {
		t.Error("bad op kind accepted")
	}
}
