package allforone

// Large-n coverage (ROADMAP: "scale experiments past n≈32"): the hybrid
// protocol and the Ben-Or baseline at n=128 under the two non-uniform
// profiles that matter for schedule search — an explicit per-link skew
// matrix and a partition healing at a virtual instant. Each cell is
// checked three ways: safety, liveness, and bit-identical replay. Guarded
// by testing.Short.

import (
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"
	"testing"
	"time"

	"allforone/internal/netsim"
)

const largeN = 128

// requireXL gates the extra-large scale cells (n ≥ 100k gossip, n ≥ 8192
// allconcur): each takes minutes of wall clock, which together would blow
// through `go test`'s default 10-minute package timeout in the plain
// tier-1 run. The large-n CI step opts in with ALLFORONE_XL=1 and a
// widened -timeout; locally: ALLFORONE_XL=1 go test -timeout 60m -run ... .
func requireXL(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("extra-large scale cell skipped in -short mode")
	}
	if os.Getenv("ALLFORONE_XL") == "" {
		t.Skip("extra-large scale cell: set ALLFORONE_XL=1 to run (large-n CI step)")
	}
}

// largeNWorkload builds the binary proposals. The hybrid protocol gets
// mixed proposals (its common coin still converges in a few rounds at
// n=128); Ben-Or gets unanimous ones — with mixed inputs its local coins
// are in the exponential-convergence regime at this scale, and the test
// targets the engine/profile/crash machinery, not coin luck.
func largeNWorkload(n int, mixed bool) Workload {
	w := Workload{}
	for i := 0; i < n; i++ {
		v := One
		if mixed && i%4 == 0 {
			v = Zero
		}
		w.Binary = append(w.Binary, v)
	}
	return w
}

// largeNProfiles returns the two profile axes. The skew matrix is drawn
// once from a fixed seed: entries up to 40µs reorder deliveries
// aggressively.
func largeNProfiles() []struct {
	name string
	p    NetworkProfile
} {
	rng := rand.New(rand.NewPCG(2024, 7))
	matrix := netsim.RandomDelayMatrix(rng, largeN, 40*time.Microsecond)
	return []struct {
		name string
		p    NetworkProfile
	}{
		{"skew-matrix", SkewMatrixProfile(matrix)},
		{"healing-partition", HealingPartitionProfile(nil, 300*time.Microsecond, 0, 20*time.Microsecond)},
	}
}

// largeNScenario builds one dense cell at n: Blocks(n, clusters), a timed
// minority crash of 8 processes at 150µs spread across clusters (none a
// whole cluster, so the liveness condition holds), and largeNWorkload's
// proposals.
func largeNScenario(t *testing.T, n, clusters int, protocolName string, prof NetworkProfile) Scenario {
	t.Helper()
	part, err := Blocks(n, clusters)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewSchedule(n)
	for p := 0; p < 8; p++ {
		if err := sched.SetTimed(ProcID(p*(n/8)+1), 150*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	return Scenario{
		Protocol: protocolName,
		Topology: Topology{Partition: part},
		Workload: largeNWorkload(n, protocolName == ProtocolHybrid),
		Faults:   sched,
		Profile:  prof,
		Seed:     1303,
		Bounds:   Bounds{MaxRounds: 10_000},
	}
}

// scaleRun runs one large sparse-overlay cell and returns its first run's
// wall clock: the run passes Check, every live process decides want, the
// message bill stays under n², and a replay is DeepEqual.
func scaleRun(t *testing.T, sc Scenario, want string) time.Duration {
	t.Helper()
	start := time.Now()
	out, err := Run(sc)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if vs := Check(sc, out); vs != nil {
		t.Fatal(vs)
	}
	requireLive(t, out)
	for p, pr := range out.Procs {
		if pr.Status == StatusDecided && pr.Decision != want {
			t.Fatalf("p%d decided %q, want %q", p+1, pr.Decision, want)
		}
	}
	n := int64(len(out.Procs))
	if out.Metrics.MsgsSent >= n*n {
		t.Fatalf("MsgsSent = %d at n=%d: not sub-quadratic (n² = %d)", out.Metrics.MsgsSent, n, n*n)
	}
	t.Logf("n=%d %s: %d msgs, %d steps, %v virtual, %v wall", n, sc.Protocol, out.Metrics.MsgsSent, out.Steps, out.VirtualTime, wall)
	again, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, again) {
		t.Fatalf("n=%d replay diverged:\n  first:  %+v\n  second: %+v", n, out.Procs[:4], again.Procs[:4])
	}
	return wall
}

// TestVeryLargeNBitRepro pushes the determinism contract three doublings
// past the old n≈128 ceiling: {hybrid, benor} × {n=512, n=1024} under a
// seeded skew matrix, each cell checked for liveness, safety, and
// bit-identical replay. This is the scale the timer-wheel scheduler and
// the batched delivery path exist for; before them a single n=1024 cell
// cost minutes of allocator churn.
func TestVeryLargeNBitRepro(t *testing.T) {
	if testing.Short() {
		t.Skip("n=512/1024 matrix skipped in -short mode")
	}
	t.Parallel()
	for _, n := range []int{512, 1024} {
		rng := rand.New(rand.NewPCG(2024, uint64(n)))
		prof := SkewMatrixProfile(netsim.RandomDelayMatrix(rng, n, 40*time.Microsecond))
		for _, protocolName := range []string{ProtocolHybrid, ProtocolBenOr} {
			n, protocolName := n, protocolName
			t.Run(fmt.Sprintf("%s/n=%d", protocolName, n), func(t *testing.T) {
				t.Parallel()
				out := runAndReplay(t, largeNScenario(t, n, n/64, protocolName, prof))
				requireLive(t, out)
				if out.Sched.EventsScheduled == 0 || out.Sched.MaxBucketDepth == 0 {
					t.Fatalf("scheduler stats empty: %+v", out.Sched)
				}
			})
		}
	}
}

// TestE6MessageComplexityDoubling extends E6 (Θ(n²) messages per round,
// paper §III-A) through three doublings past the harness's n≤32 sweep:
// at every n the per-round message count normalized by n²·(rounds+1) must
// stay Θ(1) — the doubling-n form of the quadratic-growth claim. One
// seeded trial per n (deterministic under the virtual engine).
func TestE6MessageComplexityDoubling(t *testing.T) {
	if testing.Short() {
		t.Skip("E6 doubling runs skipped in -short mode")
	}
	t.Parallel()
	type cell struct {
		n    int
		msgs float64
		norm float64
	}
	var cells []cell
	for _, n := range []int{128, 256, 512, 1024} {
		part, err := Blocks(n, n/8)
		if err != nil {
			t.Fatal(err)
		}
		props := make([]Value, n)
		for i := range props {
			props[i] = One
		}
		out, err := Run(Scenario{
			Protocol:  ProtocolHybrid,
			Topology:  Topology{Partition: part},
			Workload:  Workload{Binary: props},
			Algorithm: AlgoCommonCoin,
			Seed:      7,
			Bounds:    Bounds{MaxRounds: 1000},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !out.AllLiveDecided() {
			t.Fatalf("n=%d: crash-free run did not decide", n)
		}
		r := float64(out.MaxDecisionRound())
		msgs := float64(out.Metrics.MsgsSent)
		norm := msgs / (float64(n*n) * (r + 1))
		// Each round is one broadcast per process (n² messages) plus the
		// DECIDE echo broadcast (≈ n² more): the normalization sits near 1
		// for every n if and only if growth is quadratic.
		if norm < 0.5 || norm > 2.0 {
			t.Fatalf("n=%d: msgs/(n²·(rounds+1)) = %.3f, outside [0.5, 2] — message growth is not Θ(n²)", n, norm)
		}
		cells = append(cells, cell{n: n, msgs: msgs, norm: norm})
	}
	for i := 1; i < len(cells); i++ {
		ratio := cells[i].msgs / cells[i-1].msgs
		// Doubling n must roughly quadruple messages; rounds jitter makes
		// the band generous but it still separates n² from n or n³.
		if ratio < 2 || ratio > 9 {
			t.Fatalf("msgs(n=%d)/msgs(n=%d) = %.2f, outside the quadratic band [2, 9]",
				cells[i].n, cells[i-1].n, ratio)
		}
		t.Logf("n=%4d → msgs %.3g, norm %.3f, doubling ratio %.2f", cells[i].n, cells[i].msgs, cells[i].norm, ratio)
	}
}

// TestGossipTenThousand runs the sparse-overlay dissemination protocol at
// n=10,000 — the scale the overlay family exists for, where any all-to-all
// protocol would move ~10⁸ messages per round. A single rumor source must
// infect the whole population within the deterministic round budget (the
// transit-derived push-phase figure), the bill must stay Θ(n·d·R), and
// the run must replay bit-for-bit.
func TestGossipTenThousand(t *testing.T) {
	if testing.Short() {
		t.Skip("gossip n=10k skipped in -short mode")
	}
	t.Parallel()
	scaleRun(t, sparseScenario(t, ProtocolGossip, 10_000, nil), "1")
}

// TestGossipHundredThousand is the paper-headline scale run: epidemic
// dissemination at n=100,000, where one all-to-all round would move 10¹⁰
// messages. The flattened reactor pool plus the transit-derived round
// budget (push-phase analysis: ~half the legacy 4·D+24 budget at this
// profile) keep the bill in the tens of millions. A single source must
// still infect the entire population, and the run must replay
// bit-for-bit.
func TestGossipHundredThousand(t *testing.T) {
	requireXL(t)
	t.Parallel()
	scaleRun(t, sparseScenario(t, ProtocolGossip, 100_000, nil), "1")
}

// TestAllConcurSixteenThousand quadruples the atomic-broadcast scale gate:
// n=16,384 with a timed minority crash mid-dissemination. This is the run
// the bitmap delivered tracking is sized for — n²/8 bytes (32 MiB) across
// reactors, where per-origin bool slices cost n² before any envelope
// traffic.
func TestAllConcurSixteenThousand(t *testing.T) {
	requireXL(t)
	t.Parallel()
	crashes := map[ProcID]time.Duration{100: 150 * time.Microsecond, 8000: 150 * time.Microsecond}
	scaleRun(t, sparseScenario(t, ProtocolAllConcur, 16_384, crashes), "v0")
}

// TestAllConcurCrashAtScale forces the suspect-closure exclusion path at
// n=8192 (ROADMAP: the closure path had no test beyond n=4096). Process 0
// crashes at t=0 — before proposing — so every survivor must resolve the
// closure of origin 0 from FAIL(0,·) certificates and decide the
// next-smallest origin's value; two more mid-flood crashes exercise the
// marker/FAIL machinery concurrently.
func TestAllConcurCrashAtScale(t *testing.T) {
	requireXL(t)
	t.Parallel()
	crashes := map[ProcID]time.Duration{0: 0, 1000: 150 * time.Microsecond, 4000: 300 * time.Microsecond}
	scaleRun(t, sparseScenario(t, ProtocolAllConcur, 8192, crashes), "v1")
}

// TestAllConcurFourThousand runs the leaderless atomic broadcast at
// n=4096 with a timed minority crash mid-dissemination: survivors must
// all deliver the same set, agree on the smallest live origin's value,
// and the envelope bill must stay sub-quadratic. Replay is bit-identical.
func TestAllConcurFourThousand(t *testing.T) {
	if testing.Short() {
		t.Skip("allconcur n=4096 skipped in -short mode")
	}
	t.Parallel()
	crashes := map[ProcID]time.Duration{100: 150 * time.Microsecond, 2000: 150 * time.Microsecond}
	elapsed := scaleRun(t, sparseScenario(t, ProtocolAllConcur, 4096, crashes), "v0")
	// The large-n CI step (ALLFORONE_XL set) runs this cell in a process of
	// its own, uninstrumented, and holds the run to a wall ceiling: 0.6 s on
	// the 2-vCPU sizing box with block-form news items, 1.8 s with one item
	// per forwarded origin, 7.2 s with the interval-list delivered set
	// before that — the ceiling sits above the first, below the others.
	const ceiling = 3 * time.Second
	if os.Getenv("ALLFORONE_XL") != "" && elapsed > ceiling {
		t.Fatalf("n=4096 allconcur took %v of wall clock, ceiling %v: the ingest path has regressed", elapsed, ceiling)
	}
}

// TestLargeNDifferentialAndReplay is the n=128 matrix: {hybrid, benor} ×
// {skew matrix, healing partition}, each cell run twice (bit-repro).
func TestLargeNDifferentialAndReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("n=128 matrix skipped in -short mode")
	}
	t.Parallel()
	for _, protocolName := range []string{ProtocolHybrid, ProtocolBenOr} {
		for _, prof := range largeNProfiles() {
			protocolName, prof := protocolName, prof
			t.Run(fmt.Sprintf("%s/%s", protocolName, prof.name), func(t *testing.T) {
				t.Parallel()
				out := runAndReplay(t, largeNScenario(t, largeN, 8, protocolName, prof.p))
				requireLive(t, out)
				if out.Steps == 0 || out.VirtualTime == 0 {
					t.Fatalf("run carries no clock: %+v", out)
				}
			})
		}
	}
}
