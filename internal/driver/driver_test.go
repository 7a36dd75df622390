package driver

import (
	"errors"
	"testing"
	"time"

	"allforone/internal/failures"
	"allforone/internal/metrics"
	"allforone/internal/netsim"
	"allforone/internal/sim"
)

// echoNet builds a plain seeded network for n processes.
func echoNet(n int, seed uint64, ctr *metrics.Counters) NewNetFunc {
	return func(extra ...netsim.Option) (*netsim.Network, error) {
		opts := []netsim.Option{netsim.WithSeed(seed), netsim.WithCounters(ctr)}
		opts = append(opts, extra...)
		return netsim.New(n, opts...)
	}
}

// A nil NewNetFunc runs pure shared-memory bodies: no network, no inboxes,
// deterministic spawn-order execution.
func TestNilNetwork(t *testing.T) {
	t.Parallel()
	const n = 4
	var order []int
	if _, err := RunHandlers(Config{}, n, nil, func(i int, h *Handle) Reactor {
		return ReactorFunc(func(bool) bool {
			order = append(order, i)
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("bodies ran %v, want each of %d once", order, n)
	}
	for i, p := range order {
		if p != i {
			t.Errorf("bodies ran in order %v, want spawn order", order)
			break
		}
	}
}

// Identical inputs must yield identical Outcomes under the virtual engine.
func TestVirtualOutcomeReproducible(t *testing.T) {
	t.Parallel()
	run := func() Outcome {
		const n = 6
		var ctr metrics.Counters
		var nw *netsim.Network
		newNet := func(extra ...netsim.Option) (*netsim.Network, error) {
			var err error
			opts := []netsim.Option{
				netsim.WithSeed(11),
				netsim.WithCounters(&ctr),
				netsim.WithUniformDelay(time.Microsecond, time.Millisecond),
			}
			opts = append(opts, extra...)
			nw, err = netsim.New(n, opts...)
			return nw, err
		}
		got := make([]int, n)
		out, err := RunHandlers(Config{}, n, newNet, func(i int, h *Handle) Reactor {
			return &pingReactor{nw: nw, h: h, n: n, i: i, got: &got[i]}
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("outcomes diverged: %+v vs %+v", a, b)
	}
}

// A crash schedule referencing processes the run does not have is rejected
// up front with ErrBadCrashes — previously the engine panicked indexing its
// per-process kill flags.
func TestOversizedCrashScheduleRejected(t *testing.T) {
	t.Parallel()
	sched := failures.NewSchedule(5)
	if err := sched.SetTimed(4, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	_, err := RunHandlers(Config{Crashes: sched}, 3, nil, func(int, *Handle) Reactor {
		return ReactorFunc(func(bool) bool { return true })
	})
	if !errors.Is(err, ErrBadCrashes) {
		t.Errorf("err = %v, want ErrBadCrashes", err)
	}
}

// tickReactor counts timer ticks via WakeAfter: the reactor form of a
// periodic loop (gossip rounds, crash alarms).
type tickReactor struct {
	h      *Handle
	period time.Duration
	ticks  int
	want   int
	stamps *[]time.Duration
	extra  time.Duration // when > 0, schedule one dangling wake before finishing
}

func (r *tickReactor) React(aborted bool) bool {
	if aborted {
		return true
	}
	if r.ticks == 0 && len(*r.stamps) == 0 {
		r.h.WakeAfter(r.period)
		*r.stamps = append(*r.stamps, -1) // mark started
		return false
	}
	r.ticks++
	*r.stamps = append(*r.stamps, r.h.Now())
	if r.ticks >= r.want {
		if r.extra > 0 {
			r.h.WakeAfter(r.extra) // fires after Finish: must be a no-op
		}
		return true
	}
	r.h.WakeAfter(r.period)
	return false
}

// TestWakeAfterDrivesReactorTicks: WakeAfter is the reactor's timer — each
// scheduled wake re-invokes the reactor at the exact virtual instant, and
// a wake landing after the process finished is a harmless no-op.
func TestWakeAfterDrivesReactorTicks(t *testing.T) {
	t.Parallel()
	var stamps []time.Duration
	out, err := RunHandlers(Config{}, 1, nil, func(i int, h *Handle) Reactor {
		return &tickReactor{h: h, period: 100 * time.Microsecond, want: 3, stamps: &stamps, extra: time.Millisecond}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{-1, 100 * time.Microsecond, 200 * time.Microsecond, 300 * time.Microsecond}
	if len(stamps) != len(want) {
		t.Fatalf("stamps = %v, want %v", stamps, want)
	}
	for i := 1; i < len(want); i++ {
		if stamps[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v (stamps %v)", i, stamps[i], want[i], stamps)
		}
	}
	// The dangling wake never runs: the scheduler ends the run when every
	// process has finished, so a timer outliving its reactor neither
	// wakes anything nor stretches the virtual clock.
	if out.VirtualTime != 300*time.Microsecond {
		t.Fatalf("VirtualTime = %v, want 300µs", out.VirtualTime)
	}
}

// TestResolveMaxSteps pins the Config.MaxSteps convention: zero derives the
// budget from the topology (the regression PR 7 fixes: an n=8192 run used to
// need an explicit MaxSteps) shaped by the protocol's complexity hint,
// negative disables the bound, positive passes through untouched.
func TestResolveMaxSteps(t *testing.T) {
	if got, want := resolveMaxSteps(0, 8192, sim.StepsQuadratic), sim.DefaultMaxStepsFor(8192); got != want {
		t.Errorf("resolveMaxSteps(0, 8192, quadratic) = %d, want %d", got, want)
	}
	if got := resolveMaxSteps(0, 7, sim.StepsQuadratic); got != sim.DefaultMaxSteps {
		t.Errorf("resolveMaxSteps(0, 7, quadratic) = %d, want the floor %d", got, int64(sim.DefaultMaxSteps))
	}
	if got := resolveMaxSteps(-1, 1024, sim.StepsQuadratic); got != 0 {
		t.Errorf("resolveMaxSteps(-1, 1024, quadratic) = %d, want 0 (unbounded)", got)
	}
	if got := resolveMaxSteps(12345, 8192, sim.StepsQuadratic); got != 12345 {
		t.Errorf("resolveMaxSteps(12345, 8192, quadratic) = %d, want the explicit value back", got)
	}
	// The sparse-overlay hint: O(n)-shaped budget at large n, the same
	// floor at small n, and an explicit MaxSteps still wins.
	if got, want := resolveMaxSteps(0, 100_000, sim.StepsLinear), int64(8192*100_000); got != want {
		t.Errorf("resolveMaxSteps(0, 100k, linear) = %d, want %d", got, want)
	}
	if got := resolveMaxSteps(0, 64, sim.StepsLinear); got != sim.DefaultMaxSteps {
		t.Errorf("resolveMaxSteps(0, 64, linear) = %d, want the floor %d", got, int64(sim.DefaultMaxSteps))
	}
	if got := resolveMaxSteps(777, 100_000, sim.StepsLinear); got != 777 {
		t.Errorf("resolveMaxSteps(777, 100k, linear) = %d, want the explicit value back", got)
	}
	// The linear default must undercut the quadratic one exactly where it
	// matters: beyond the crossover n where 24·n² > 8192·n.
	if lin, quad := sim.DefaultMaxStepsHint(4096, sim.StepsLinear), sim.DefaultMaxStepsFor(4096); lin >= quad {
		t.Errorf("linear hint (%d) not below quadratic default (%d) at n=4096", lin, quad)
	}
}
