package register

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/sim"
)

// us builds a microsecond instant for hand-written histories.
func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func wr(p int, val string, start, end int) HistOp {
	return HistOp{Proc: model.ProcID(p), Kind: OpWrite, Val: val, Start: us(start), End: us(end), OK: true}
}

func rd(p int, val string, start, end int) HistOp {
	return HistOp{Proc: model.ProcID(p), Kind: OpRead, Val: val, Start: us(start), End: us(end), OK: true}
}

func TestCheckLinearizableAcceptsLegalHistories(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		ops  []HistOp
	}{
		{"empty", nil},
		{"initial read", []HistOp{rd(0, "", 0, 1)}},
		{"sequential writes and read", []HistOp{wr(0, "a", 0, 1), wr(1, "b", 2, 3), rd(2, "b", 4, 5)}},
		{"concurrent writes either order", []HistOp{
			wr(0, "a", 0, 10), wr(1, "b", 5, 15), rd(2, "a", 12, 20), rd(2, "b", 22, 30),
		}},
		{"read overlapping write sees old or new", []HistOp{
			wr(0, "a", 0, 2), wr(0, "b", 10, 20), rd(1, "a", 12, 14), rd(2, "b", 15, 25),
		}},
		{"failed write took effect", []HistOp{
			wr(0, "a", 0, 1),
			{Proc: 1, Kind: OpWrite, Val: "b", Start: us(2), End: us(3), OK: false},
			rd(2, "b", 10, 11),
		}},
		{"failed write never took effect", []HistOp{
			wr(0, "a", 0, 1),
			{Proc: 1, Kind: OpWrite, Val: "b", Start: us(2), End: us(3), OK: false},
			rd(2, "a", 10, 11),
		}},
	}
	for _, tc := range cases {
		if err := CheckLinearizable(tc.ops); err != nil {
			t.Errorf("%s rejected: %v", tc.name, err)
		}
	}
}

// TestCheckLinearizableRejectsSeededHistories is the checker's negative
// gate: each seeded history violates atomicity and must be rejected.
func TestCheckLinearizableRejectsSeededHistories(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		ops  []HistOp
	}{
		{"stale read", []HistOp{
			wr(0, "a", 0, 1), wr(0, "b", 2, 3), rd(1, "a", 4, 5),
		}},
		{"new-old inversion", []HistOp{
			wr(0, "a", 0, 1), wr(0, "b", 2, 3),
			rd(1, "b", 4, 5), rd(2, "a", 6, 7),
		}},
		{"read from nowhere", []HistOp{
			wr(0, "a", 0, 1), rd(1, "c", 2, 3),
		}},
		{"lost update", []HistOp{
			wr(0, "a", 0, 1), rd(1, "", 2, 3),
		}},
		{"failed write read before invocation", []HistOp{
			{Proc: 0, Kind: OpWrite, Val: "b", Start: us(10), End: us(11), OK: false},
			rd(1, "b", 2, 3),
		}},
	}
	for _, tc := range cases {
		err := CheckLinearizable(tc.ops)
		if err == nil {
			t.Errorf("%s accepted", tc.name)
			continue
		}
		var nl *ErrNotLinearizable
		if !errors.As(err, &nl) {
			t.Errorf("%s: error type %T, want *ErrNotLinearizable", tc.name, err)
		}
	}
}

func TestCheckLinearizableInputValidation(t *testing.T) {
	t.Parallel()
	if err := CheckLinearizable(make([]HistOp, maxHistoryOps+1)); err == nil {
		t.Error("oversized history accepted")
	}
	failedRead := []HistOp{{Proc: 0, Kind: OpRead, Start: 0, End: us(1), OK: false}}
	if err := CheckLinearizable(failedRead); err == nil {
		t.Error("failed read accepted")
	}
}

// linearizableConfig is a scripted workload with genuine concurrency:
// writers and readers overlap through delivery delays (the uniform band
// [minDelay, maxDelay]; 0, 0 is immediate delivery) and staggered starts,
// on the Fig1Left partition.
func linearizableConfig(seed int64, minDelay, maxDelay time.Duration) Config {
	part := model.Fig1Left()
	scripts := make([][]Op, part.N())
	scripts[0] = []Op{WriteOp("w0-1"), WriteOp("w0-2"), WriteOp("w0-3")}
	scripts[2] = []Op{ReadOp(), {Kind: OpRead, After: 100 * time.Microsecond}, ReadOp()}
	scripts[3] = []Op{{Kind: OpWrite, Val: "w3-1", After: 50 * time.Microsecond}, ReadOp()}
	scripts[5] = []Op{ReadOp(), WriteOp("w5-1"), ReadOp()}
	return Config{
		Partition: part,
		Scripts:   scripts,
		Seed:      seed,
		MinDelay:  minDelay,
		MaxDelay:  maxDelay,
	}
}

// TestScriptedRunsAreLinearizable is the concurrency coverage: the
// histories of scripted runs — 32 seeds, each at immediate delivery and
// under a 20–300 µs uniform band — must all pass the checker. The whole
// test is deterministic: a failing (band, seed) is its own repro.
func TestScriptedRunsAreLinearizable(t *testing.T) {
	t.Parallel()
	for _, band := range []struct {
		name     string
		min, max time.Duration
	}{
		{"immediate", 0, 0},
		{"uniform", 20 * time.Microsecond, 300 * time.Microsecond},
	} {
		t.Run(band.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 32; seed++ {
				res, err := Run(linearizableConfig(seed, band.min, band.max))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for p, pr := range res.Procs {
					if pr.Status != sim.StatusDecided {
						t.Fatalf("seed %d: proc %d = %+v, want decided", seed, p, pr)
					}
				}
				if err := res.CheckLinearizable(); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestCrashedRunHistoryLinearizable: a run where the majority crashes
// mid-script still yields a linearizable history — interrupted writes are
// ambiguous (may or may not have taken effect) and the checker must
// account for both fates.
func TestCrashedRunHistoryLinearizable(t *testing.T) {
	t.Parallel()
	part := model.Fig1Right()
	survivor := model.ProcID(2) // member of the majority cluster P[2]
	sched := failures.NewSchedule(part.N())
	for p := 0; p < part.N(); p++ {
		if model.ProcID(p) != survivor {
			if err := sched.SetTimed(model.ProcID(p), 500*time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	scripts := make([][]Op, part.N())
	scripts[0] = []Op{WriteOp("early")}
	scripts[1] = []Op{{Kind: OpWrite, Val: "doomed", After: 400 * time.Microsecond}}
	scripts[survivor] = []Op{
		{Kind: OpRead, After: time.Millisecond},
		WriteOp("after-crash"),
		ReadOp(),
	}
	res, err := Run(Config{
		Partition: part,
		Scripts:   scripts,
		Seed:      11,
		Crashes:   sched,
		MinDelay:  10 * time.Microsecond,
		MaxDelay:  200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckLinearizable(); err != nil {
		t.Error(err)
	}
	// The history must expose the op windows: every completed op has
	// End ≥ Start, and same-process ops are sequential.
	for p, pr := range res.Procs {
		var prevEnd time.Duration
		for i, op := range pr.Ops {
			if op.OK && op.End < op.Start {
				t.Errorf("proc %d op %d: End %v < Start %v", p, i, op.End, op.Start)
			}
			if op.Start < prevEnd {
				t.Errorf("proc %d op %d overlaps its predecessor", p, i)
			}
			if op.OK {
				prevEnd = op.End
			}
		}
	}
}

// TestHistoryDeterministicUnderVirtualEngine: the history — including
// every invocation and response instant — is part of the bit-repro
// contract.
func TestHistoryDeterministicUnderVirtualEngine(t *testing.T) {
	t.Parallel()
	a, err := Run(linearizableConfig(33, 20*time.Microsecond, 300*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(linearizableConfig(33, 20*time.Microsecond, 300*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	ha, hb := a.History(), b.History()
	if fmt.Sprint(ha) != fmt.Sprint(hb) {
		t.Fatalf("histories diverged:\n  %v\n  %v", ha, hb)
	}
	if len(ha) == 0 {
		t.Fatal("empty history")
	}
	if ha[0].Start == ha[len(ha)-1].Start {
		t.Error("history carries no time structure")
	}
}
