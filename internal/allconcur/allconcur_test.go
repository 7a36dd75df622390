package allconcur

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/overlay"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

func proposals(n int) []string {
	ps := make([]string, n)
	for i := range ps {
		ps[i] = fmt.Sprintf("v%d", i)
	}
	return ps
}

// baseConfig is an allconcur run on spec under a 0–200µs band.
func baseConfig(n int, spec overlay.Spec) protocol.Scenario {
	return protocol.Scenario{
		Protocol: ProtocolName,
		Topology: protocol.Topology{N: n, Overlay: &spec},
		Workload: protocol.Workload{Values: proposals(n)},
		Seed:     42,
		Profile:  protocol.Uniform(0, 200*time.Microsecond),
	}
}

// run runs sc through the registry and returns allconcur's raw result.
func run(sc protocol.Scenario) (*Result, error) {
	out, err := protocol.Run(sc)
	if err != nil {
		return nil, err
	}
	return out.Raw.(*Result), nil
}

func timedCrashes(t *testing.T, n int, at time.Duration, victims ...model.ProcID) *failures.Schedule {
	t.Helper()
	s := failures.NewSchedule(n)
	for _, p := range victims {
		if err := s.SetTimed(p, at); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestCrashFreeDecidesMinOriginOnAllFamilies(t *testing.T) {
	specs := []overlay.Spec{
		{Kind: overlay.KindDeBruijn, Degree: 3},
		{Kind: overlay.KindCirculant, Degree: 3},
		{Kind: overlay.KindRandom, Degree: 3, Seed: 7},
	}
	for _, spec := range specs {
		res, err := run(baseConfig(33, spec))
		if err != nil {
			t.Fatalf("%v: %v", spec.Kind, err)
		}
		for p, pr := range res.Procs {
			if pr.Status != sim.StatusDecided {
				t.Fatalf("%v: proc %d status %v, want decided", spec.Kind, p, pr.Status)
			}
			if pr.Decision != "v0" {
				t.Fatalf("%v: proc %d decided %q, want v0 (smallest origin)", spec.Kind, p, pr.Decision)
			}
			if pr.Delivered != 33 {
				t.Fatalf("%v: proc %d delivered %d of 33", spec.Kind, p, pr.Delivered)
			}
		}
	}
}

// TestSurvivorsAgreeUnderMinorityCrashes: with κ(circulant d=3) = 3, any
// two crashes leave the live subgraph strongly connected; every survivor
// must terminate via the exclusion rule and all must decide alike.
func TestSurvivorsAgreeUnderMinorityCrashes(t *testing.T) {
	n := 7
	for _, at := range []time.Duration{0, 50 * time.Microsecond, 300 * time.Microsecond} {
		cfg := baseConfig(n, overlay.Spec{Kind: overlay.KindCirculant, Degree: 3})
		cfg.Faults = timedCrashes(t, n, at, 0, 6)
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("at=%v: %v", at, err)
		}
		var decision string
		for p, pr := range res.Procs {
			if p == 0 || p == 6 {
				// A victim whose instant falls after its completion decides
				// first — a legitimate execution (it is then held to the
				// agreement check below like any decider). Before the flush
				// delay has even elapsed (at ≤ 50µs here), completion is
				// impossible and the crash must win.
				if pr.Status == sim.StatusDecided && at > flushDelay {
					// falls through to the agreement check
				} else if pr.Status != sim.StatusCrashed {
					t.Fatalf("at=%v: victim %d status %v, want crashed", at, p, pr.Status)
				} else {
					continue
				}
			}
			if pr.Status != sim.StatusDecided {
				t.Fatalf("at=%v: survivor %d status %v (delivered %d), want decided", at, p, pr.Status, pr.Delivered)
			}
			if decision == "" {
				decision = pr.Decision
			} else if pr.Decision != decision {
				t.Fatalf("at=%v: survivor %d decided %q, earlier survivor %q", at, p, pr.Decision, decision)
			}
		}
		// Validity: the decision is some process's proposal.
		valid := false
		for _, v := range cfg.Workload.Values {
			if v == decision {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("at=%v: decision %q is no proposal", at, decision)
		}
	}
}

// TestInstantCrashExcludesVictimsValue: victims crashing at t=0 never
// propose; survivors must exclude them and decide the smallest LIVE
// origin's value.
func TestInstantCrashExcludesVictimsValue(t *testing.T) {
	n := 7
	cfg := baseConfig(n, overlay.Spec{Kind: overlay.KindCirculant, Degree: 3})
	cfg.Faults = timedCrashes(t, n, 0, 0)
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p, pr := range res.Procs {
		if p == 0 {
			continue
		}
		if pr.Status != sim.StatusDecided || pr.Decision != "v1" {
			t.Fatalf("survivor %d: status %v decision %q, want decided v1", p, pr.Status, pr.Decision)
		}
		if pr.Delivered != n-1 {
			t.Fatalf("survivor %d delivered %d, want %d (victim excluded)", p, pr.Delivered, n-1)
		}
	}
}

// TestDisconnectionBlocksIndulgently: on a ring (κ=1) one crash severs
// the live subgraph. Processes cut off from an origin must block — never
// guess — while the decided/crashed rest stays consistent: indulgence.
func TestDisconnectionBlocksIndulgently(t *testing.T) {
	// Ring 0→1→2→3→0; crashing 2 at t=0 leaves 1 unable to reach 3 and 0.
	n := 4
	cfg := baseConfig(n, overlay.Spec{Kind: overlay.KindCirculant, Degree: 1})
	cfg.Faults = timedCrashes(t, n, 0, 2)
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiesced {
		t.Fatalf("run did not quiesce: %+v", res)
	}
	if got := res.Procs[2].Status; got != sim.StatusCrashed {
		t.Fatalf("victim status %v, want crashed", got)
	}
	// Process 1 still hears 0 (directly) and 3 (via 0): it can exclude 2
	// and decide. Processes 0 and 3 never hear 1's value — 1's only
	// successor was the victim — and 1 is live, so they must block.
	if got := res.Procs[1].Status; got != sim.StatusDecided {
		t.Fatalf("proc 1 status %v, want decided", got)
	}
	if got := res.Procs[1].Decision; got != "v0" {
		t.Fatalf("proc 1 decided %q, want v0", got)
	}
	for _, p := range []int{0, 3} {
		if got := res.Procs[p].Status; got != sim.StatusBlocked {
			t.Fatalf("proc %d status %v, want blocked (cut off from origin 1)", p, got)
		}
	}
}

// TestDeterministicReplay pins replay of a cell the registry suite's
// allconcur row lacks: n = 64 on a de Bruijn overlay with two crashes
// mid-flood.
func TestDeterministicReplay(t *testing.T) {
	cfg := baseConfig(64, overlay.Spec{Kind: overlay.KindDeBruijn, Degree: 4})
	cfg.Faults = timedCrashes(t, 64, 120*time.Microsecond, 9, 33)
	a, errA := run(cfg)
	b, errB := run(cfg)
	if err := errors.Join(errA, errB); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestEnvelopeCountStaysSubQuadratic pins the batching design: flushing
// news as shared-slice envelopes keeps the measured message count near
// n·d per dissemination wave — far under the n² of an all-to-all round.
func TestEnvelopeCountStaysSubQuadratic(t *testing.T) {
	n, d := 128, 4
	cfg := baseConfig(n, overlay.Spec{Kind: overlay.KindDeBruijn, Degree: d})
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p, pr := range res.Procs {
		if pr.Status != sim.StatusDecided {
			t.Fatalf("proc %d status %v", p, pr.Status)
		}
	}
	if quad := int64(n) * int64(n); res.Metrics.MsgsSent >= quad {
		t.Fatalf("MsgsSent = %d is not sub-quadratic (n² = %d)", res.Metrics.MsgsSent, quad)
	}
}

// Set agreement is about the delivered sets, not their sizes: two decided
// processes that delivered equally many messages from different origins
// break it, and a set's digest does not depend on the order its members
// arrived in.
func TestViolationsCatchEqualSizedDifferentSets(t *testing.T) {
	t.Parallel()
	const words = 3 // a row of n = 130 ids
	set := func(ids ...uint32) *deliveredSet {
		s := &deliveredSet{blocks: make([]block, words)}
		for _, q := range ids {
			s.AddBlock(int(q>>6), 1<<(q&63))
		}
		return s
	}
	decided := func(s *deliveredSet) ProcResult {
		return ProcResult{Status: sim.StatusDecided, Decision: "v0", Delivered: s.Count(), digest: s.Digest()}
	}
	a, aReordered, b := set(0, 64, 129), set(129, 0, 64), set(0, 64, 128)
	if a.Digest() != aReordered.Digest() {
		t.Fatal("one set, added in two orders, has two digests")
	}

	agree := &Result{Procs: []ProcResult{decided(a), {Status: sim.StatusCrashed}, decided(aReordered)}}
	if vs := agree.Violations(&protocol.Scenario{}); len(vs) != 0 {
		t.Fatalf("equal sets: %v", vs)
	}
	split := &Result{Procs: []ProcResult{decided(a), {Status: sim.StatusCrashed}, decided(b)}}
	vs := split.Violations(&protocol.Scenario{})
	if len(vs) != 1 || vs[0].Property != "set-agreement" {
		t.Fatalf("equal-sized different sets: violations %v, want one set-agreement", vs)
	}
}
