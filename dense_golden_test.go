package allforone

// The dense sharded Outcomes of record: a hash per cell, taken on the commit
// before broadcast fanouts stopped being sorted at send time. Which arrivals
// share an instant, the order they wake their recipients in, every reschedule
// and every reserved sequence number decide who closes an exchange on whose
// message — so decisions, rounds, steps, virtual time, the message bill and
// the scheduler's own counters all ride on the fanout order, and any rewrite
// of that path must reproduce these hashes, at every Workers width.

import (
	"fmt"
	"testing"
	"time"
)

// denseGolden maps "<cell>/seed=<seed>" to the FNV-64a of the run's JSON
// Outcome.
var denseGolden = map[string]uint64{
	"hybrid-local/n=300/seed=11":       0x43b48cabb2ea790f,
	"hybrid-local/n=300/seed=4099":     0x5fe49f596ab536fb,
	"hybrid-common/n=300/seed=11":      0x677f292e6e87a901,
	"hybrid-common/n=300/seed=4099":    0xd76de882eadc7209,
	"hybrid-local/n=1024/seed=11":      0x0953267adc78ef20,
	"hybrid-local/n=1024/seed=4099":    0x37323daf1b0e63a2,
	"hybrid-common/n=1024/seed=11":     0x1aaea5ad10f388c2,
	"hybrid-common/n=1024/seed=4099":   0xe5de21aee26859d5,
	"benor-bounded/n=300/seed=11":      0x12496543b70fa691,
	"benor-bounded/n=300/seed=4099":    0x1c3a596e7c3d51c1,
	"hybrid-crash-cut/n=300/seed=11":   0xbce99a9e969f09fd,
	"hybrid-crash-cut/n=300/seed=4099": 0x95c9b3adbe3cc5e1,
}

// denseGoldenCell is one pinned scenario shape. short cells also run under
// -short; bounded ones must end at their step budget, the rest must not; cut
// is the number of mid-broadcast crashes that must have struck (a timed crash
// may find its process already finished, a planned one cannot).
type denseGoldenCell struct {
	name    string
	short   bool
	bounded bool
	cut     int
	build   func(t *testing.T, seed int64, workers int) Scenario
}

// denseHybrid is the hybrid protocol on Blocks(n, 10) with eight timed
// crashes at 60 µs — mid-exchange under the 50 µs–2 ms band.
func denseHybrid(n int, algo string) func(*testing.T, int64, int) Scenario {
	return func(t *testing.T, seed int64, workers int) Scenario {
		t.Helper()
		part, err := Blocks(n, 10)
		if err != nil {
			t.Fatal(err)
		}
		sched := NewSchedule(n)
		for p := 0; p < 8; p++ {
			if err := sched.SetTimed(ProcID(p*(n/8)+1), 60*time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		return Scenario{
			Protocol:  ProtocolHybrid,
			Algorithm: algo,
			Topology:  Topology{Partition: part},
			Workload:  largeNWorkload(n, true),
			Faults:    sched,
			Profile:   UniformProfile(50*time.Microsecond, 2*time.Millisecond),
			Seed:      seed,
			Workers:   workers,
		}
	}
}

// denseBenOrBounded is the every-message-delivered regime: Ben-Or consumes
// all n arrivals of every broadcast, and with split proposals its local coins
// do not converge at n = 300, so the run ends at the step budget.
func denseBenOrBounded(t *testing.T, seed int64, workers int) Scenario {
	t.Helper()
	const n = 300
	w := Workload{}
	for i := 0; i < n; i++ {
		w.Binary = append(w.Binary, Value(i%2))
	}
	return Scenario{
		Protocol: ProtocolBenOr,
		Topology: Topology{N: n},
		Workload: w,
		Profile:  UniformProfile(0, 600*time.Microsecond),
		Seed:     seed,
		Workers:  workers,
		Bounds:   Bounds{MaxSteps: 2_000_000},
	}
}

// denseCrashCut is the BroadcastSubset-heavy cell: four processes crash in
// the middle of a phase broadcast, each delivering to a recipient list that
// is NOT ascending (descending, interleaved from both ends, strided, and a
// reversed even/odd split) — under a 3 µs-wide band, so many of a list's
// arrivals share an instant and wake in list order.
func denseCrashCut(t *testing.T, seed int64, workers int) Scenario {
	t.Helper()
	const n = 300
	part, err := Blocks(n, 10)
	if err != nil {
		t.Fatal(err)
	}
	var descending, ends, strided, split []ProcID
	for i := 0; i < n; i++ {
		descending = append(descending, ProcID(n-1-i))
		if i%2 == 0 {
			ends = append(ends, ProcID(i/2))
		} else {
			ends = append(ends, ProcID(n-1-i/2))
		}
		strided = append(strided, ProcID(i*7%n)) // 7 ∤ 300: a permutation
	}
	for i := n - 2; i >= 0; i -= 2 {
		split = append(split, ProcID(i))
	}
	for i := n - 1; i >= 0; i -= 2 {
		split = append(split, ProcID(i))
	}
	sched := NewSchedule(n)
	for _, c := range []struct {
		p     ProcID
		round int
		phase int
		to    []ProcID
	}{
		{3, 1, 1, descending[:200]},
		{77, 1, 1, ends},
		{151, 1, 2, strided[:250]},
		{298, 1, 2, split},
	} {
		crash := Crash{At: CrashPoint{Round: c.round, Phase: c.phase, Stage: StageMidBroadcast}, DeliverTo: c.to}
		if err := sched.Set(c.p, crash); err != nil {
			t.Fatal(err)
		}
	}
	return Scenario{
		Protocol:  ProtocolHybrid,
		Algorithm: AlgoCommonCoin,
		Topology:  Topology{Partition: part},
		Workload:  largeNWorkload(n, true),
		Faults:    sched,
		Profile:   UniformProfile(50*time.Microsecond, 53*time.Microsecond),
		Seed:      seed,
		Workers:   workers,
	}
}

var denseGoldenCells = []denseGoldenCell{
	{name: "hybrid-local/n=300", short: true, build: denseHybrid(300, AlgoLocalCoin)},
	{name: "hybrid-common/n=300", short: true, build: denseHybrid(300, AlgoCommonCoin)},
	{name: "hybrid-local/n=1024", build: denseHybrid(1024, AlgoLocalCoin)},
	{name: "hybrid-common/n=1024", build: denseHybrid(1024, AlgoCommonCoin)},
	{name: "benor-bounded/n=300", short: true, bounded: true, build: denseBenOrBounded},
	{name: "hybrid-crash-cut/n=300", short: true, cut: 4, build: denseCrashCut},
}

// TestDenseShardedOutcomeGolden holds every dense sharded cell to its
// recorded Outcome at Workers 1 and 2: n = 300 runs on 2 shard wheels, n =
// 1024 on 8.
func TestDenseShardedOutcomeGolden(t *testing.T) {
	t.Parallel()
	for _, cell := range denseGoldenCells {
		if testing.Short() && !cell.short {
			continue
		}
		for _, seed := range []int64{11, 4099} {
			name := fmt.Sprintf("%s/seed=%d", cell.name, seed)
			for _, workers := range []int{1, 2} {
				out, err := Run(cell.build(t, seed, workers))
				if err != nil {
					t.Fatalf("%s Workers=%d: %v", name, workers, err)
				}
				if out.StepsExceeded != cell.bounded {
					t.Fatalf("%s Workers=%d: StepsExceeded = %v, want %v", name, workers, out.StepsExceeded, cell.bounded)
				}
				if crashed := out.CountStatus(StatusCrashed); crashed < cell.cut {
					t.Fatalf("%s Workers=%d: %d processes crashed, want the %d crash-cut broadcasts", name, workers, crashed, cell.cut)
				}
				if out.Sched.ShardEvents == 0 {
					t.Fatalf("%s Workers=%d: the run never took the sharded path", name, workers)
				}
				if got, want := jsonHash(t, out), denseGolden[name]; got != want {
					t.Errorf("%s Workers=%d: Outcome hash %#016x, want %#016x (steps %d, virtual %v, msgs %d/%d)",
						name, workers, got, want, out.Steps, out.VirtualTime, out.Metrics.MsgsDelivered, out.Metrics.MsgsSent)
				}
			}
		}
	}
}
