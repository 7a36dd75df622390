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

func largeNScenario(t *testing.T, protocolName string, prof NetworkProfile) Scenario {
	t.Helper()
	part, err := Blocks(largeN, 8)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewSchedule(largeN)
	// A timed minority crash (8 processes, none a whole cluster) keeps the
	// liveness condition intact while exercising crash bookkeeping at scale.
	for p := 0; p < 8; p++ {
		if err := sched.SetTimed(ProcID(p*16+1), 150*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	return Scenario{
		Protocol: protocolName,
		Topology: Topology{Partition: part},
		Workload: largeNWorkload(largeN, protocolName == ProtocolHybrid),
		Faults:   sched,
		Profile:  prof,
		Seed:     1303,
		Bounds:   Bounds{MaxRounds: 10_000},
	}
}

// veryLargeNScenario is the n≥512 analogue of largeNScenario: Blocks
// topology with 64-process clusters, a timed 8-process minority crash
// spread across distinct clusters, and an explicit per-link skew matrix
// drawn once per n from a fixed seed (40µs cap, same as n=128).
func veryLargeNScenario(t *testing.T, n int, protocolName string, prof NetworkProfile) Scenario {
	t.Helper()
	part, err := Blocks(n, n/64)
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
		matrix := netsim.RandomDelayMatrix(rng, n, 40*time.Microsecond)
		prof := SkewMatrixProfile(matrix)
		for _, protocolName := range []string{ProtocolHybrid, ProtocolBenOr} {
			n, protocolName, prof := n, protocolName, prof
			t.Run(fmt.Sprintf("%s/n=%d", protocolName, n), func(t *testing.T) {
				t.Parallel()
				sc := veryLargeNScenario(t, n, protocolName, prof)
				first, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				if first.BoundedOut() {
					t.Fatalf("run bounded out after %d steps", first.Steps)
				}
				if vs := Check(sc, first); vs != nil {
					t.Fatal(vs)
				}
				if !first.AllLiveDecided() {
					t.Fatalf("live processes unfinished: decided %d, crashed %d, blocked %d of %d",
						first.CountStatus(StatusDecided), first.CountStatus(StatusCrashed),
						first.CountStatus(StatusBlocked), n)
				}
				if first.Sched.EventsScheduled == 0 || first.Sched.MaxBucketDepth == 0 {
					t.Fatalf("scheduler stats empty: %+v", first.Sched)
				}

				second, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(first, second) {
					t.Fatalf("n=%d replay diverged:\n  first:  %+v\n  second: %+v", n, first, second)
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
	const n = 10_000
	w := Workload{Binary: make([]Value, n)}
	w.Binary[n/2] = One // a single rumor source, worst case for dissemination
	sc := Scenario{
		Protocol: ProtocolGossip,
		Topology: Topology{
			N:       n,
			Overlay: &OverlaySpec{Kind: OverlayDeBruijn, Degree: DefaultOverlayDegree(n)},
		},
		Workload: w,
		Profile:  UniformProfile(0, 200*time.Microsecond),
		Seed:     1303,
	}
	start := time.Now()
	first, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if got := first.CountStatus(StatusDecided); got != n {
		t.Fatalf("decided %d of %d", got, n)
	}
	for p, pr := range first.Procs {
		if pr.Decision != "1" {
			t.Fatalf("proc %d decided %q, want 1 (rumor must reach everyone)", p, pr.Decision)
		}
	}
	// Θ(n·d·R) bill: with d = DefaultOverlayDegree and the deterministic
	// round budget this sits far below even ONE all-to-all round (n² = 10⁸).
	if quad := int64(n) * int64(n); first.Metrics.MsgsSent >= quad {
		t.Fatalf("MsgsSent = %d at n=10k — not sub-quadratic (n² = %d)", first.Metrics.MsgsSent, quad)
	}
	t.Logf("n=10k gossip: %d msgs, %d steps, %v virtual, %v wall", first.Metrics.MsgsSent, first.Steps, first.VirtualTime, elapsed)

	second, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("n=10k replay diverged:\n  first:  %+v\n  second: %+v", first.Procs[:4], second.Procs[:4])
	}
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
	const n = 100_000
	w := Workload{Binary: make([]Value, n)}
	w.Binary[n/2] = One // a single rumor source, worst case for dissemination
	sc := Scenario{
		Protocol: ProtocolGossip,
		Topology: Topology{
			N:       n,
			Overlay: &OverlaySpec{Kind: OverlayDeBruijn, Degree: DefaultOverlayDegree(n)},
		},
		Workload: w,
		Profile:  UniformProfile(0, 200*time.Microsecond),
		Seed:     1303,
	}
	start := time.Now()
	first, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if got := first.CountStatus(StatusDecided); got != n {
		t.Fatalf("decided %d of %d", got, n)
	}
	for p, pr := range first.Procs {
		if pr.Decision != "1" {
			t.Fatalf("proc %d decided %q, want 1 (rumor must reach everyone)", p, pr.Decision)
		}
	}
	if quad := int64(n) * int64(n); first.Metrics.MsgsSent >= quad {
		t.Fatalf("MsgsSent = %d at n=100k — not sub-quadratic (n² = %d)", first.Metrics.MsgsSent, quad)
	}
	t.Logf("n=100k gossip: %d msgs, %d steps, %v virtual, %v wall", first.Metrics.MsgsSent, first.Steps, first.VirtualTime, elapsed)

	second, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("n=100k replay diverged:\n  first:  %+v\n  second: %+v", first.Procs[:4], second.Procs[:4])
	}
}

// TestAllConcurSixteenThousand quadruples the atomic-broadcast scale gate:
// n=16,384 with a timed minority crash mid-dissemination. This is the run
// the bitmap delivered tracking is sized for — n²/8 bytes (32 MiB) across
// reactors, where per-origin bool slices cost n² before any envelope
// traffic.
func TestAllConcurSixteenThousand(t *testing.T) {
	requireXL(t)
	t.Parallel()
	const n = 16_384
	w := Workload{}
	for i := 0; i < n; i++ {
		w.Values = append(w.Values, fmt.Sprintf("v%d", i))
	}
	sched := NewSchedule(n)
	// Two crashes 150µs in — after the victims flood their own value but
	// before dissemination completes. κ(de Bruijn, d=7) = 6 keeps the
	// survivor subgraph strongly connected.
	for _, p := range []ProcID{100, 8000} {
		if err := sched.SetTimed(p, 150*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	sc := Scenario{
		Protocol: ProtocolAllConcur,
		Topology: Topology{
			N:       n,
			Overlay: &OverlaySpec{Kind: OverlayDeBruijn, Degree: DefaultOverlayDegree(n)},
		},
		Workload: w,
		Faults:   sched,
		Profile:  UniformProfile(0, 200*time.Microsecond),
		Seed:     1303,
	}
	start := time.Now()
	first, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if vs := Check(sc, first); vs != nil {
		t.Fatal(vs)
	}
	if got := first.CountStatus(StatusBlocked); got != 0 {
		t.Fatalf("%d blocked processes (overlay κ covers the crash set; nobody may block)", got)
	}
	if !first.AllLiveDecided() {
		t.Fatalf("live processes unfinished: decided %d, crashed %d of %d",
			first.CountStatus(StatusDecided), first.CountStatus(StatusCrashed), n)
	}
	for p, pr := range first.Procs {
		if pr.Status == StatusDecided && pr.Decision != "v0" {
			t.Fatalf("proc %d decided %q, want v0 (smallest live origin)", p, pr.Decision)
		}
	}
	if quad := int64(n) * int64(n); first.Metrics.MsgsSent >= quad {
		t.Fatalf("MsgsSent = %d at n=16384 — not sub-quadratic (n² = %d)", first.Metrics.MsgsSent, quad)
	}
	t.Logf("n=16384 allconcur: %d msgs, %d steps, %v virtual, %v wall", first.Metrics.MsgsSent, first.Steps, first.VirtualTime, elapsed)

	second, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("n=16384 replay diverged:\n  first:  %+v\n  second: %+v", first.Procs[:4], second.Procs[:4])
	}
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
	const n = 8192
	w := Workload{}
	for i := 0; i < n; i++ {
		w.Values = append(w.Values, fmt.Sprintf("v%d", i))
	}
	sched := NewSchedule(n)
	if err := sched.SetTimed(0, 0); err != nil { // dies before proposing
		t.Fatal(err)
	}
	if err := sched.SetTimed(1000, 150*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := sched.SetTimed(4000, 300*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Protocol: ProtocolAllConcur,
		Topology: Topology{
			N:       n,
			Overlay: &OverlaySpec{Kind: OverlayDeBruijn, Degree: DefaultOverlayDegree(n)},
		},
		Workload: w,
		Faults:   sched,
		Profile:  UniformProfile(0, 200*time.Microsecond),
		Seed:     1303,
	}
	start := time.Now()
	first, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if vs := Check(sc, first); vs != nil {
		t.Fatal(vs)
	}
	if got := first.CountStatus(StatusBlocked); got != 0 {
		t.Fatalf("%d blocked processes (3 crashes < κ=6; nobody may block)", got)
	}
	if !first.AllLiveDecided() {
		t.Fatalf("live processes unfinished: decided %d, crashed %d of %d",
			first.CountStatus(StatusDecided), first.CountStatus(StatusCrashed), n)
	}
	for p, pr := range first.Procs {
		// "v1", not "v0": every decider excluded origin 0 via the closure —
		// the assertion that pins the exclusion path at scale.
		if pr.Status == StatusDecided && pr.Decision != "v1" {
			t.Fatalf("proc %d decided %q, want v1 (origin 0 must be closure-excluded)", p, pr.Decision)
		}
	}
	t.Logf("n=8192 allconcur crash-at-scale: %d msgs, %d steps, %v virtual, %v wall",
		first.Metrics.MsgsSent, first.Steps, first.VirtualTime, elapsed)

	second, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("n=8192 replay diverged:\n  first:  %+v\n  second: %+v", first.Procs[:4], second.Procs[:4])
	}
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
	const n = 4096
	w := Workload{}
	for i := 0; i < n; i++ {
		w.Values = append(w.Values, fmt.Sprintf("v%d", i))
	}
	sched := NewSchedule(n)
	// Two crashes 150µs in — after the victims flood their own value but
	// before dissemination completes — exercise the tombstone-marker and
	// FAIL-flooding machinery at scale. κ(de Bruijn, d=7) = 6 keeps the
	// survivor subgraph strongly connected.
	for _, p := range []ProcID{100, 2000} {
		if err := sched.SetTimed(p, 150*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	sc := Scenario{
		Protocol: ProtocolAllConcur,
		Topology: Topology{
			N:       n,
			Overlay: &OverlaySpec{Kind: OverlayDeBruijn, Degree: DefaultOverlayDegree(n)},
		},
		Workload: w,
		Faults:   sched,
		Profile:  UniformProfile(0, 200*time.Microsecond),
		Seed:     1303,
	}
	start := time.Now()
	first, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if vs := Check(sc, first); vs != nil {
		t.Fatal(vs)
	}
	if got := first.CountStatus(StatusBlocked); got != 0 {
		t.Fatalf("%d blocked processes (overlay κ covers the crash set; nobody may block)", got)
	}
	if !first.AllLiveDecided() {
		t.Fatalf("live processes unfinished: decided %d, crashed %d of %d",
			first.CountStatus(StatusDecided), first.CountStatus(StatusCrashed), n)
	}
	for p, pr := range first.Procs {
		if pr.Status == StatusDecided && pr.Decision != "v0" {
			t.Fatalf("proc %d decided %q, want v0 (smallest live origin)", p, pr.Decision)
		}
	}
	if quad := int64(n) * int64(n); first.Metrics.MsgsSent >= quad {
		t.Fatalf("MsgsSent = %d at n=4096 — not sub-quadratic (n² = %d)", first.Metrics.MsgsSent, quad)
	}
	t.Logf("n=4096 allconcur: %d msgs, %d steps, %v virtual, %v wall", first.Metrics.MsgsSent, first.Steps, first.VirtualTime, elapsed)
	// The large-n CI step (ALLFORONE_XL set) runs this cell in a process of
	// its own, uninstrumented, and holds the run to a wall ceiling: 1.7 s on
	// the 2-vCPU sizing box with the bitmap delivered set, 7.2 s with the
	// interval list it replaced — the ceiling sits between, far from both.
	const ceiling = 6 * time.Second
	if os.Getenv("ALLFORONE_XL") != "" && elapsed > ceiling {
		t.Fatalf("n=4096 allconcur took %v of wall clock, ceiling %v: the ingest path has regressed", elapsed, ceiling)
	}

	second, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("n=4096 replay diverged:\n  first:  %+v\n  second: %+v", first.Procs[:4], second.Procs[:4])
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
				sc := largeNScenario(t, protocolName, prof.p)
				first, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				if first.BoundedOut() {
					t.Fatalf("run bounded out after %d steps", first.Steps)
				}
				if vs := Check(sc, first); vs != nil {
					t.Fatal(vs)
				}
				if !first.AllLiveDecided() {
					t.Fatalf("live processes unfinished: decided %d, crashed %d, blocked %d of %d",
						first.CountStatus(StatusDecided), first.CountStatus(StatusCrashed),
						first.CountStatus(StatusBlocked), largeN)
				}
				if first.Steps == 0 || first.VirtualTime == 0 {
					t.Fatalf("run carries no clock: %+v", first)
				}

				// Bit-identical replay at n=128: the determinism contract
				// must not erode with scale.
				second, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(first, second) {
					t.Fatalf("n=128 replay diverged:\n  first:  %+v\n  second: %+v", first, second)
				}
			})
		}
	}
}
