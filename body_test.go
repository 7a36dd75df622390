package allforone

// The body-form differential suite: protocols offering both process-body
// forms (inline handlers and coroutines) must produce bit-identical
// Outcomes for every scenario — same decisions, rounds, message counts,
// virtual clock, and step count. The handler form is the default
// (sim.BodyAuto); the coroutine form stays behind Scenario.Body as the
// differential oracle.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"allforone/internal/allconcur"
	"allforone/internal/failures"
	"allforone/internal/gossip"
	"allforone/internal/sim"
	"allforone/internal/smr"
)

// bodyCase is one randomized differential scenario.
type bodyCase struct {
	name string
	sc   Scenario
}

// genBodyCases draws the randomized scenario matrix: for each protocol
// variant, `per` cases over random sizes, partitions, network profiles,
// fault patterns, and run seeds. Generation is itself seeded, so the whole
// suite is reproducible.
func genBodyCases(t *testing.T, per int) []bodyCase {
	t.Helper()
	rng := rand.New(rand.NewPCG(0x5eed, 0xca5e))
	variants := []struct {
		protocol  string
		algorithm string
	}{
		{"hybrid", "local-coin"},
		{"hybrid", "common-coin"},
		{"benor", ""},
	}
	profiles := []func() NetworkProfile{
		func() NetworkProfile { return nil },
		func() NetworkProfile { return UniformProfile(0, 200*time.Microsecond) },
		func() NetworkProfile { return DistanceSkewProfile(50*time.Microsecond, 25*time.Microsecond) },
		func() NetworkProfile {
			return ClusterWANProfile(50*time.Microsecond, 300*time.Microsecond, 50*time.Microsecond)
		},
	}
	var cases []bodyCase
	for _, v := range variants {
		for c := 0; c < per; c++ {
			n := 3 + rng.IntN(10) // 3 … 12
			nprof := len(profiles)
			if v.protocol != "hybrid" {
				nprof-- // cluster-wan needs a cluster partition topology
			}
			sc := Scenario{
				Protocol:  v.protocol,
				Algorithm: v.algorithm,
				Seed:      rng.Int64(),
				Profile:   profiles[rng.IntN(nprof)](),
				Bounds:    Bounds{MaxRounds: 10_000},
			}
			if v.protocol == "hybrid" {
				m := 1 + rng.IntN(4)
				if m > n {
					m = n
				}
				part, err := Blocks(n, m)
				if err != nil {
					t.Fatal(err)
				}
				sc.Topology = Topology{Partition: part}
			} else {
				sc.Topology = Topology{N: n}
			}
			for i := 0; i < n; i++ {
				sc.Workload.Binary = append(sc.Workload.Binary, Value(int8(rng.IntN(2))))
			}
			// Fault axis: crash-free, a timed minority, or random staged
			// crash points (both forms must hit them at the same step).
			maxCrash := (n - 1) / 2
			switch rng.IntN(3) {
			case 1:
				if maxCrash > 0 {
					sched := NewSchedule(n)
					k := 1 + rng.IntN(maxCrash)
					for _, p := range rng.Perm(n)[:k] {
						if err := sched.SetTimed(ProcID(p), time.Duration(1+rng.IntN(800))*time.Microsecond); err != nil {
							t.Fatal(err)
						}
					}
					sc.Faults = sched
				}
			case 2:
				if maxCrash > 0 {
					sched, err := failures.GenRandom(rng, n, 1+rng.IntN(maxCrash), 3, 2)
					if err != nil {
						t.Fatal(err)
					}
					sc.Faults = sched
				}
			}
			name := fmt.Sprintf("%s/%s/case%02d", v.protocol, v.algorithm, c)
			cases = append(cases, bodyCase{name: name, sc: sc})
		}
	}
	return cases
}

// stripRaw clears the protocol-native result pointer so outcomes compare
// by value.
func stripRaw(o *Outcome) Outcome {
	c := *o
	c.Raw = nil
	return c
}

// TestBodyFormDifferential runs ≥200 randomized scenarios twice — inline
// handlers vs coroutines — and requires bit-identical outcomes.
func TestBodyFormDifferential(t *testing.T) {
	t.Parallel()
	cases := genBodyCases(t, 70) // 3 variants × 70 = 210 cases
	for _, bc := range cases {
		bc := bc
		scH := bc.sc
		scH.Body = sim.BodyAuto
		scC := bc.sc
		scC.Body = sim.BodyCoroutine
		handler, err := Run(scH)
		if err != nil {
			t.Fatalf("%s (handler): %v", bc.name, err)
		}
		coroutine, err := Run(scC)
		if err != nil {
			t.Fatalf("%s (coroutine): %v", bc.name, err)
		}
		if !reflect.DeepEqual(stripRaw(handler), stripRaw(coroutine)) {
			t.Fatalf("%s: body forms diverged:\n  handler:   %+v\n  coroutine: %+v",
				bc.name, stripRaw(handler), stripRaw(coroutine))
		}
		// Every run must terminate conclusively for the comparison to mean
		// anything; a budget exhaustion would compare equal trivially.
		if handler.StepsExceeded || handler.DeadlineExceeded {
			t.Fatalf("%s: run hit an artificial bound: %+v", bc.name, stripRaw(handler))
		}
	}
}

// TestHandlerOnlyProtocolsRejectCoroutineBody: smr, gossip and allconcur
// are reactors only, so a scenario asking for the coroutine form is
// rejected with the protocol's ErrBadConfig, and the default form runs.
func TestHandlerOnlyProtocolsRejectCoroutineBody(t *testing.T) {
	t.Parallel()
	sparse := Topology{N: 8, Overlay: &OverlaySpec{Kind: OverlayDeBruijn, Degree: DefaultOverlayDegree(8)}}
	for _, tc := range []struct {
		sc     Scenario
		badCfg error
	}{
		{Scenario{
			Protocol: ProtocolSMR,
			Topology: Topology{Partition: Singletons(3)},
			Workload: Workload{Commands: [][]string{{"a"}, {"b"}, nil}, Slots: 1},
		}, smr.ErrBadConfig},
		{Scenario{
			Protocol: ProtocolGossip,
			Topology: sparse,
			Workload: Workload{Binary: []Value{1, 0, 0, 0, 0, 0, 0, 0}},
		}, gossip.ErrBadConfig},
		{Scenario{
			Protocol: ProtocolAllConcur,
			Topology: sparse,
			Workload: Workload{Values: []string{"a", "b", "c", "d", "e", "f", "g", "h"}},
		}, allconcur.ErrBadConfig},
	} {
		if _, err := Run(tc.sc); err != nil {
			t.Fatalf("%s, BodyAuto: %v", tc.sc.Protocol, err)
		}
		tc.sc.Body = sim.BodyCoroutine
		if _, err := Run(tc.sc); !errors.Is(err, tc.badCfg) {
			t.Errorf("%s, BodyCoroutine: error = %v, want %v", tc.sc.Protocol, err, tc.badCfg)
		}
	}
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
