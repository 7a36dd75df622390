package harness

import (
	"fmt"
	"strings"
	"testing"
)

// small returns options sized for fast unit tests.
func small() Options {
	return Options{Trials: 8, SeedBase: 1}
}

func TestRunUnknownExperiment(t *testing.T) {
	t.Parallel()
	if _, err := Run("E99", small()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	t.Parallel()
	o := Options{}.withDefaults()
	if o.Trials != 50 {
		t.Errorf("defaults = %+v", o)
	}
	// Explicit values survive.
	o = Options{Trials: 3}.withDefaults()
	if o.Trials != 3 {
		t.Errorf("explicit options overridden: %+v", o)
	}
}

func TestE1Fig1Decompositions(t *testing.T) {
	t.Parallel()
	rep, err := E1Fig1Decompositions(small())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Table.Rows() != 4 {
		t.Errorf("rows = %d, want 4 (2 partitions × 2 algorithms)", rep.Table.Rows())
	}
	for key, v := range rep.Findings {
		if strings.HasSuffix(key, "decided_pct") && v != 100 {
			t.Errorf("%s = %v, want 100 (crash-free must decide)", key, v)
		}
	}
}

func TestE2MajorityCrash(t *testing.T) {
	t.Parallel()
	rep, err := E2MajorityCrash(small())
	if err != nil {
		t.Fatal(err)
	}
	// The headline claim: hybrid decides, message-passing blocks.
	for _, key := range []string{"hybrid/local-coin/decided_pct", "hybrid/common-coin/decided_pct"} {
		if rep.Findings[key] != 100 {
			t.Errorf("%s = %v, want 100", key, rep.Findings[key])
		}
	}
	for _, key := range []string{"benor/decided_pct", "mpcoin/decided_pct"} {
		if rep.Findings[key] != 0 {
			t.Errorf("%s = %v, want 0", key, rep.Findings[key])
		}
	}
}

func TestE3CommonCoinRounds(t *testing.T) {
	t.Parallel()
	rep, err := E3CommonCoinRounds(Options{Trials: 30, SeedBase: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Expected ≈ 2 rounds; allow generous slack for 30 trials (the
	// distribution is geometric with mean 2, stderr ≈ 1.4/√30 ≈ 0.26).
	mean := rep.Findings["unanimous1/fig1-left/rounds_mean"]
	if mean < 1.0 || mean > 3.5 {
		t.Errorf("unanimous rounds mean = %v, want ≈2", mean)
	}
}

func TestE4RoundsVsClusters(t *testing.T) {
	t.Parallel()
	rep, err := E4RoundsVsClusters(Options{Trials: 6, SeedBase: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Table.Rows() != 6 {
		t.Errorf("rows = %d, want 6", rep.Table.Rows())
	}
	// m=1 must decide in exactly 1 round (single cluster agrees instantly).
	if got := rep.Findings["m=1/rounds_mean"]; got != 1 {
		t.Errorf("m=1 rounds mean = %v, want 1", got)
	}
}

func TestE5ObjectInvocations(t *testing.T) {
	t.Parallel()
	rep, err := E5ObjectInvocations(small())
	if err != nil {
		t.Fatal(err)
	}
	// Hybrid: objects/phase = m = 3 for the Fig1 layouts; exactly 1
	// invocation per process per phase.
	for _, cfgName := range []string{"fig1-left (m=3)", "fig1-right (m=3)"} {
		if got := rep.Findings["hybrid/"+cfgName+"/objects_per_phase"]; got != 3 {
			t.Errorf("hybrid %s objects/phase = %v, want 3", cfgName, got)
		}
		if got := rep.Findings["hybrid/"+cfgName+"/inv_per_proc_phase"]; got != 1 {
			t.Errorf("hybrid %s inv/proc/phase = %v, want 1", cfgName, got)
		}
	}
	if got := rep.Findings["hybrid/blocks n=10,m=5/objects_per_phase"]; got != 5 {
		t.Errorf("hybrid blocks objects/phase = %v, want 5", got)
	}
	// m&m: objects/phase = n.
	if got := rep.Findings["mm/fig2 (5 procs)/objects_per_phase"]; got != 5 {
		t.Errorf("m&m fig2 objects/phase = %v, want 5", got)
	}
	if got := rep.Findings["mm/fig2 (5 procs)/inv_per_proc_phase_max"]; got != 4 {
		t.Errorf("m&m fig2 max inv/proc/phase = %v, want 4 (α₃+1)", got)
	}
	if got := rep.Findings["mm/star-8/inv_per_proc_phase_max"]; got != 8 {
		t.Errorf("m&m star-8 max inv/proc/phase = %v, want 8 (hub degree 7 + 1)", got)
	}
}

func TestE6MessageComplexity(t *testing.T) {
	t.Parallel()
	rep, err := E6MessageComplexity(Options{Trials: 5, SeedBase: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The normalized cost must be Θ(1): every n within [0.3, 3].
	for key, v := range rep.Findings {
		if v < 0.3 || v > 3 {
			t.Errorf("%s = %v, want Θ(1) within [0.3, 3]", key, v)
		}
	}
}

func TestE7ExtremeConfigs(t *testing.T) {
	t.Parallel()
	rep, err := E7ExtremeConfigs(Options{Trials: 8, SeedBase: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Findings["hybrid-m1/rounds_mean"]; got != 1 {
		t.Errorf("hybrid m=1 rounds = %v, want 1", got)
	}
	if got := rep.Findings["native-sh/decided_pct"]; got != 100 {
		t.Errorf("native shared memory decided%% = %v, want 100", got)
	}
	// Both m=n systems must decide; rounds are random but bounded in
	// expectation — sanity-check they are ≥ 1.
	if got := rep.Findings["hybrid-mn/rounds_mean"]; got < 1 {
		t.Errorf("hybrid m=n rounds = %v, want ≥ 1", got)
	}
	if got := rep.Findings["native-benor/rounds_mean"]; got < 1 {
		t.Errorf("native benor rounds = %v, want ≥ 1", got)
	}
}

func TestE8Indulgence(t *testing.T) {
	t.Parallel()
	rep, err := E8Indulgence(Options{Trials: 3, SeedBase: 6})
	if err != nil {
		t.Fatal(err)
	}
	for key, v := range rep.Findings {
		if strings.HasSuffix(key, "decided_runs") && v != 0 {
			t.Errorf("%s = %v, want 0 (must not decide)", key, v)
		}
		if strings.HasSuffix(key, "violations") && v != 0 {
			t.Errorf("%s = %v, want 0 safety violations", key, v)
		}
	}
}

func TestE9ExtensionStack(t *testing.T) {
	t.Parallel()
	rep, err := E9ExtensionStack(Options{Trials: 4, SeedBase: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"multivalued/success_pct", "register/success_pct", "log/success_pct"} {
		if got := rep.Findings[key]; got != 100 {
			t.Errorf("%s = %v, want 100", key, got)
		}
	}
	if rep.Table.Rows() != 3 {
		t.Errorf("rows = %d, want 3", rep.Table.Rows())
	}
}

// TestE10SparseOverlay pins the tentpole claim of the sparse-overlay
// family: at fixed degree, doubling n roughly doubles the per-round
// message bill of gossip and allconcur (ratio ≈ 2), while the dense
// hybrid baseline's bill quadruples (ratio ≈ 4). Both sparse ratios must
// stay strictly under 4 and under whatever the hybrid measured.
func TestE10SparseOverlay(t *testing.T) {
	t.Parallel()
	rep, err := E10SparseOverlay(Options{Trials: 3, SeedBase: 5})
	if err != nil {
		t.Fatal(err)
	}
	hybrid := rep.Findings["hybrid/doubling_ratio"]
	if hybrid < 3 {
		t.Errorf("hybrid doubling ratio = %v, want ≈ 4 (quadratic baseline)", hybrid)
	}
	for _, proto := range []string{"gossip", "allconcur"} {
		ratio := rep.Findings[proto+"/doubling_ratio"]
		if ratio <= 0 {
			t.Fatalf("%s doubling ratio missing from findings: %v", proto, rep.Findings)
		}
		if ratio >= 4 {
			t.Errorf("%s doubling ratio = %v, want < 4 (sub-quadratic)", proto, ratio)
		}
		if ratio >= hybrid {
			t.Errorf("%s doubling ratio = %v, not under the hybrid baseline %v", proto, ratio, hybrid)
		}
	}
	// 3 protocols × 4 population sizes.
	if got := rep.Table.Rows(); got != 12 {
		t.Errorf("rows = %d, want 12", got)
	}
}

// TestE10DegreeSweep pins the trade-off the sweep exists to expose:
// raising d shrinks the diameter bound and raises κ = d−1, at a growing
// msgs/round cost for both sparse protocols.
func TestE10DegreeSweep(t *testing.T) {
	t.Parallel()
	rep, err := E10DegreeSweep(Options{Trials: 3, SeedBase: 5})
	if err != nil {
		t.Fatal(err)
	}
	// 2 sparse protocols × 5 degrees at fixed n.
	if got := rep.Table.Rows(); got != 10 {
		t.Errorf("rows = %d, want 10", got)
	}
	for _, d := range []int{3, 4, 6, 8, 12} {
		for _, proto := range []string{"gossip", "allconcur"} {
			key := fmt.Sprintf("sweep/%s/d=%d/msgs_per_round", proto, d)
			if rep.Findings[key] <= 0 {
				t.Errorf("degree-sweep finding %q missing or non-positive: %v", key, rep.Findings[key])
			}
		}
		if rep.Findings[fmt.Sprintf("sweep/d=%d/kappa", d)] != float64(d-1) {
			t.Errorf("sweep/d=%d/kappa = %v, want de Bruijn κ = d−1 = %d",
				d, rep.Findings[fmt.Sprintf("sweep/d=%d/kappa", d)], d-1)
		}
	}
	if rep.Findings["sweep/d=12/diameter_bound"] >= rep.Findings["sweep/d=3/diameter_bound"] {
		t.Errorf("diameter bound did not shrink with degree: d=3 → %v, d=12 → %v",
			rep.Findings["sweep/d=3/diameter_bound"], rep.Findings["sweep/d=12/diameter_bound"])
	}
	// msgs/round must grow with d for both protocols (linear-in-d cost).
	for _, proto := range []string{"gossip", "allconcur"} {
		lo := rep.Findings[fmt.Sprintf("sweep/%s/d=3/msgs_per_round", proto)]
		hi := rep.Findings[fmt.Sprintf("sweep/%s/d=12/msgs_per_round", proto)]
		if hi <= lo {
			t.Errorf("%s msgs/round did not grow with degree: d=3 → %v, d=12 → %v", proto, lo, hi)
		}
	}
}

func TestA1Ablations(t *testing.T) {
	t.Parallel()
	rep, err := A1Ablations(Options{Trials: 5, SeedBase: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Findings["full algorithm/majority_crash_decided_pct"]; got != 100 {
		t.Errorf("full algorithm decided%% = %v, want 100", got)
	}
	if got := rep.Findings["closure OFF/majority_crash_decided_pct"]; got != 0 {
		t.Errorf("closure-ablated decided%% = %v, want 0", got)
	}
	if got := rep.Findings["full algorithm/uniformity_violations_pct"]; got != 0 {
		t.Errorf("full algorithm violations%% = %v, want 0", got)
	}
	if got := rep.Findings["cluster consensus OFF/uniformity_violations_pct"]; got == 0 {
		t.Error("cluster-consensus ablation produced no violations — ingredient looks unnecessary")
	}
}

// Run must dispatch every listed experiment.
func TestRunDispatchesAll(t *testing.T) {
	t.Parallel()
	// Use the cheapest possible settings; this is a dispatch smoke test.
	opts := Options{Trials: 2, SeedBase: 9}
	for _, id := range ExperimentIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(id, opts)
			if err != nil {
				t.Fatalf("Run(%s): %v", id, err)
			}
			if rep.ID != id {
				t.Errorf("report ID = %q, want %q", rep.ID, id)
			}
			if rep.Table == nil || rep.Table.Rows() == 0 {
				t.Errorf("experiment %s produced no table rows", id)
			}
			if out := rep.Table.String(); !strings.Contains(out, id+":") {
				t.Errorf("table title missing id: %q", out)
			}
		})
	}
}
