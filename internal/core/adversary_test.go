package core

import (
	"testing"
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/trace"
)

// mustCrashAllExcept builds the crash-all-but-survivors schedule used by
// the delay tests.
func mustCrashAllExcept(t *testing.T, n int, survivors ...model.ProcID) *failures.Schedule {
	t.Helper()
	sched, err := failures.CrashAllExcept(n,
		failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}, survivors...)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// Heavily skewed delays — some processes race ahead while others lag —
// force deep cross-round message buffering. Safety and termination must be
// unaffected (asynchrony is the model's default, not an edge case).
func TestHighSkewDelays(t *testing.T) {
	t.Parallel()
	for _, algo := range []Algorithm{LocalCoin, CommonCoin} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			t.Parallel()
			part := model.Fig1Left()
			props := alternating(7)
			log := trace.New()
			res := runAndCheck(t, Config{
				Partition: part,
				Proposals: props,
				Algorithm: algo,
				Seed:      1234,
				MaxRounds: 10_000,
				MinDelay:  0,
				MaxDelay:  4 * time.Millisecond, // large spread vs ~µs compute
				Trace:     log,
			})
			if !res.AllLiveDecided() {
				t.Fatalf("not all decided under skewed delays: %+v", res.Procs)
			}
		})
	}
}

// A single slow cluster: every message from/to P[2] is delayed while the
// rest of the system runs at full speed. The fast clusters can reach
// exchange majorities without P[2] (P[1]+P[3] = 5 > 7/2), so they may
// decide rounds ahead; the slow cluster must still converge to the same
// value via buffered messages or DECIDE.
func TestSlowClusterCatchesUp(t *testing.T) {
	t.Parallel()
	part := model.Fig1Left() // P[1]={p1..p3}, P[2]={p4,p5}, P[3]={p6,p7}
	props := []model.Value{model.One, model.One, model.One, model.Zero, model.Zero, model.One, model.One}
	res := runAndCheck(t, Config{
		Partition: part,
		Proposals: props,
		Algorithm: LocalCoin,
		Seed:      777,
		MaxRounds: 10_000,
		// Uniform delay stands in for the slow links; the seeded spread
		// regularly puts P[2] behind by entire phases.
		MinDelay: 0,
		MaxDelay: 3 * time.Millisecond,
	})
	if !res.AllLiveDecided() {
		t.Fatalf("not all decided: %+v", res.Procs)
	}
	val, count, _ := res.Decided()
	if count != 7 {
		t.Fatalf("decided count = %d, want 7", count)
	}
	// Only 1 can win a *phase-1 majority* here (supporters(0) is capped at
	// P[2]'s closure, 2 < ⌈n/2⌉), but if every process exits phase 1 with
	// a mixed coverage set, rec can be {⊥} and the local coins may legally
	// steer the decision to 0. So the decision value is not fixed — only
	// agreement and validity are (checked by runAndCheck above).
	if !val.IsBinary() {
		t.Errorf("decided %v, want a binary value", val)
	}
}

// Unanimity under delays decides in round 1 regardless of skew: every
// message carries the same value, so the first coverage majority settles
// it — buffering alone must not delay the decision round.
func TestUnanimityDelaysStillRoundOne(t *testing.T) {
	t.Parallel()
	res := runAndCheck(t, Config{
		Partition: model.Fig1Right(),
		Proposals: unanimous(7, model.Zero),
		Algorithm: LocalCoin,
		Seed:      9,
		MaxRounds: 100,
		MinDelay:  100 * time.Microsecond,
		MaxDelay:  2 * time.Millisecond,
	})
	if !res.AllLiveDecided() {
		t.Fatalf("not all decided: %+v", res.Procs)
	}
	if got := res.MaxDecisionRound(); got != 1 {
		t.Errorf("decision round = %d, want 1 under unanimity", got)
	}
}

// Crashes combined with delays: the surviving majority-cluster member must
// decide even when all its outgoing messages are slow.
func TestMajorityCrashWithDelays(t *testing.T) {
	t.Parallel()
	part := model.Fig1Right()
	sched := mustCrashAllExcept(t, 7, 2)
	res := runAndCheck(t, Config{
		Partition: part,
		Proposals: unanimous(7, model.One),
		Algorithm: CommonCoin,
		Seed:      3,
		MaxRounds: 1000,
		MinDelay:  0,
		MaxDelay:  2 * time.Millisecond,
		Crashes:   sched,
	})
	if res.Procs[2].Status != StatusDecided {
		t.Fatalf("survivor = %+v", res.Procs[2])
	}
}
