package allforone

// The dense sharded Outcomes of record: a hash per cell. Which arrivals share
// an instant, the order they wake their recipients in, every reschedule and
// every reserved sequence number decide who closes an exchange on whose
// message — so decisions, rounds, steps, virtual time, the message bill and
// the scheduler's own counters all ride on the fanout order, and any rewrite
// of that path must reproduce these hashes. They were taken before broadcast
// fanouts stopped being sorted at send time, and re-recorded once, when
// protocol.Uniform began compiling to the network's own band: its lookahead
// moves flush points, hence every scheduler counter of a cell whose band
// starts above 0 — and, in one run, the Outcome (see bandMoves).

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"allforone/internal/netsim"
	"allforone/internal/sim"
	"allforone/internal/vclock"
)

// denseGolden maps "<cell>/seed=<seed>" to the FNV-64a of the run's JSON
// Outcome.
var denseGolden = map[string]uint64{
	"hybrid-local/n=300/seed=11":       0xcc1f0d8252716cdb,
	"hybrid-local/n=300/seed=4099":     0x9a9b925a06e0f4bf,
	"hybrid-common/n=300/seed=11":      0x07adab17ac391533,
	"hybrid-common/n=300/seed=4099":    0x3cae6ffdeb199b95,
	"hybrid-local/n=1024/seed=11":      0xea6d67df2da54ea0,
	"hybrid-local/n=1024/seed=4099":    0xe5d359193ca8a849,
	"hybrid-common/n=1024/seed=11":     0x2780d769224e0636,
	"hybrid-common/n=1024/seed=4099":   0xafc284daa92197d5,
	"benor-bounded/n=300/seed=11":      0x12496543b70fa691,
	"benor-bounded/n=300/seed=4099":    0x1c3a596e7c3d51c1,
	"hybrid-crash-cut/n=300/seed=11":   0x7589ce11c63e499f,
	"hybrid-crash-cut/n=300/seed=4099": 0x974f36bf2d956a0d,
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
	build   func(t *testing.T, seed int64, band bandProfile) Scenario
}

// bandProfile builds a cell's uniform delay profile: UniformProfile, or
// closureBand for the differential below.
type bandProfile func(min, max time.Duration) NetworkProfile

// denseHybrid is the hybrid protocol on Blocks(n, 10) with eight timed
// crashes at 60 µs — mid-exchange under the 50 µs–2 ms band.
func denseHybrid(n int, algo string) func(*testing.T, int64, bandProfile) Scenario {
	return func(t *testing.T, seed int64, band bandProfile) Scenario {
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
			Profile:   band(50*time.Microsecond, 2*time.Millisecond),
			Seed:      seed,
		}
	}
}

// denseBenOrBounded is the every-message-delivered regime: Ben-Or consumes
// all n arrivals of every broadcast, and with split proposals its local coins
// do not converge at n = 300, so the run ends at the step budget.
func denseBenOrBounded(t *testing.T, seed int64, band bandProfile) Scenario {
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
		Profile:  band(0, 600*time.Microsecond),
		Seed:     seed,
		Bounds:   Bounds{MaxSteps: 2_000_000},
	}
}

// denseCrashCut is the BroadcastSubset-heavy cell: four processes crash in
// the middle of a phase broadcast, each delivering to a recipient list that
// is NOT ascending (descending, interleaved from both ends, strided, and a
// reversed even/odd split) — under a 3 µs-wide band, so many of a list's
// arrivals share an instant and wake in list order.
func denseCrashCut(t *testing.T, seed int64, band bandProfile) Scenario {
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
		Profile:   band(50*time.Microsecond, 53*time.Microsecond),
		Seed:      seed,
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
// recorded Outcome: n = 300 runs on 2 shard wheels, n = 1024 on 8.
func TestDenseShardedOutcomeGolden(t *testing.T) {
	t.Parallel()
	for _, cell := range denseGoldenCells {
		if testing.Short() && !cell.short {
			continue
		}
		for _, seed := range []int64{11, 4099} {
			name := fmt.Sprintf("%s/seed=%d", cell.name, seed)
			out, err := Run(cell.build(t, seed, UniformProfile))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if out.StepsExceeded != cell.bounded {
				t.Fatalf("%s: StepsExceeded = %v, want %v", name, out.StepsExceeded, cell.bounded)
			}
			if crashed := out.CountStatus(StatusCrashed); crashed < cell.cut {
				t.Fatalf("%s: %d processes crashed, want the %d crash-cut broadcasts", name, crashed, cell.cut)
			}
			if out.Sched.ShardEvents == 0 {
				t.Fatalf("%s: the run never took the sharded path", name)
			}
			if got, want := jsonHash(t, out), denseGolden[name]; got != want {
				t.Errorf("%s: Outcome hash %#016x, want %#016x (steps %d, virtual %v, msgs %d/%d)",
					name, got, want, out.Steps, out.VirtualTime, out.Metrics.MsgsDelivered, out.Metrics.MsgsSent)
			}
		}
	}
}

// closureUniform is a uniform band compiled the way every other profile is,
// to a timed delay function — one draw of min + Int64N(max−min+1) from the
// same stream, as netsim's own band draws it — instead of to the band.
type closureUniform struct{ min, max time.Duration }

func closureBand(min, max time.Duration) NetworkProfile { return closureUniform{min, max} }

func (c closureUniform) ProfileName() string {
	return fmt.Sprintf("uniform-closure[%v,%v]", c.min, c.max)
}

func (c closureUniform) Compile(int, *Partition) (netsim.Option, error) {
	span := int64(c.max - c.min)
	return netsim.WithTimedDelayFn(func(_ time.Duration, rng *rand.Rand, _ netsim.Message) time.Duration {
		return c.min + time.Duration(rng.Int64N(span+1))
	}), nil
}

// bandMoves lists the golden runs whose Outcome the band's lookahead moves.
// The band and the closure draw the same delays from the same streams, but
// the band's known minimum holds a send window open for min of virtual
// time, so the window's sequence block is reserved after events that a
// per-instant window would have preceded — mostly fanout re-arms — and
// arrivals that tie to the nanosecond at one recipient wake it in another
// order. In this run 4 of 1,024 processes close an exchange on different
// senders and decide one round later.
var bandMoves = map[string]bool{
	"hybrid-local/n=1024/seed=4099": true,
}

// TestDenseBandMatchesClosure is the differential behind compiling Uniform
// to the network's own band: every dense golden cell gives DeepEqual
// Outcomes under Uniform and under closureBand once the scheduler counters
// are zeroed — except the runs in bandMoves, which must still agree on every
// process's status and decision, with rounds at most one apart. The band's
// known minimum holds a send window open for min of virtual time, so a cell
// with min > 0 must also flush fewer, larger windows.
func TestDenseBandMatchesClosure(t *testing.T) {
	t.Parallel()
	for _, cell := range denseGoldenCells {
		if testing.Short() && !cell.short {
			continue
		}
		for _, seed := range []int64{11, 4099} {
			name := fmt.Sprintf("%s/seed=%d", cell.name, seed)
			band, err := Run(cell.build(t, seed, UniformProfile))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			closure, err := Run(cell.build(t, seed, closureBand))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			wider := cell.name != "benor-bounded/n=300" // the only cell whose band starts at 0
			if got, want := band.Sched.PoolFlushes, closure.Sched.PoolFlushes; wider && got >= want || !wider && got != want {
				t.Errorf("%s: %d flushes under the band, %d under the closure", name, got, want)
			}
			for _, out := range []*Outcome{band, closure} {
				out.Sched = vclock.SchedulerStats{}
				out.Raw.(*sim.Result).Sched = vclock.SchedulerStats{}
			}
			same := reflect.DeepEqual(band, closure)
			switch {
			case same && bandMoves[name]:
				t.Errorf("%s: listed in bandMoves, but the band no longer moves its Outcome", name)
			case !same && !bandMoves[name]:
				t.Errorf("%s: the band and the closure diverged beyond the scheduler counters\n  band:    %+v\n  closure: %+v", name, band, closure)
			case !same:
				for i, b := range band.Procs {
					c := closure.Procs[i]
					if b.Status != c.Status || b.Decision != c.Decision || b.Round-c.Round > 1 || c.Round-b.Round > 1 {
						t.Errorf("%s: p%d is %+v under the band, %+v under the closure", name, i, b, c)
					}
				}
			}
		}
	}
}
