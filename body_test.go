package allforone

// Run-level checks of the inline handler (reactor) process bodies: a starved
// exchange ends in deterministic quiescence, and a run replays bit for bit.

import (
	"reflect"
	"testing"
	"time"
)

// stripRaw clears the protocol-native result pointer so outcomes compare
// by value.
func stripRaw(o *Outcome) Outcome {
	c := *o
	c.Raw = nil
	return c
}

// TestHandlerScenarioQuiescence: a majority crash starves the survivors'
// exchanges forever; the handler form must end in deterministic
// quiescence (StatusBlocked) rather than hang the scheduler.
func TestHandlerScenarioQuiescence(t *testing.T) {
	t.Parallel()
	part, err := Blocks(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewSchedule(7)
	for _, p := range []ProcID{0, 1, 2, 3} { // majority gone at t=1µs
		if err := sched.SetTimed(p, time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	// Delays far exceed the crash instant, so the victims never act past
	// their initial broadcast: the three survivors finish round 1 on the
	// in-flight messages and then starve below majority in round 2.
	out, err := Run(Scenario{
		Protocol: "hybrid",
		Topology: Topology{Partition: part},
		Workload: Workload{Binary: []Value{0, 1, 0, 1, 0, 1, 0}},
		Faults:   sched,
		Profile:  UniformProfile(50*time.Microsecond, 100*time.Microsecond),
		Seed:     3,
		Bounds:   Bounds{MaxRounds: 10_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Quiesced {
		t.Fatalf("outcome not quiesced: %+v", stripRaw(out))
	}
	if got := out.CountStatus(StatusBlocked); got == 0 {
		t.Fatalf("no blocked survivors: %+v", out.Procs)
	}
}

// TestHandlerReplayBitReproducible: the handler form replays bit-for-bit,
// including the virtual clock, step count, and scheduler stats.
func TestHandlerReplayBitReproducible(t *testing.T) {
	t.Parallel()
	part := Fig1Right()
	sched := NewSchedule(part.N())
	if err := sched.SetTimed(6, 300*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	for _, protocol := range []string{"hybrid", "benor"} {
		sc := Scenario{
			Protocol: protocol,
			Topology: Topology{Partition: part},
			Workload: Workload{Binary: []Value{0, 1, 0, 1, 0, 1, 0}},
			Faults:   sched,
			Profile:  DistanceSkewProfile(50*time.Microsecond, 25*time.Microsecond),
			Seed:     7,
			Bounds:   Bounds{MaxRounds: 10_000},
		}
		first, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", protocol, err)
		}
		second, err := Run(sc)
		if err != nil {
			t.Fatalf("%s replay: %v", protocol, err)
		}
		if first.VirtualTime == 0 && first.Steps == 0 {
			t.Fatalf("%s: virtual run reports no clock/steps", protocol)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("%s: handler replay diverged:\n  first:  %+v\n  second: %+v", protocol, first, second)
		}
	}
}
