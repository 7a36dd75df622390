package harness

import (
	"fmt"
	"math/rand/v2"

	"allforone/internal/benor"
	"allforone/internal/core"
	"allforone/internal/failures"
	"allforone/internal/mm"
	"allforone/internal/model"
	"allforone/internal/mpcoin"
	"allforone/internal/protocol"
	"allforone/internal/shconsensus"
	"allforone/internal/sim"
	"allforone/internal/stats"
)

// ExperimentIDs lists the experiment identifiers in run order. E1…E8
// reproduce the paper's figures and quantitative claims; E9 validates the
// extension stack; E10 contrasts the sparse-overlay protocol family's
// msgs/round scaling against the dense hybrid baseline; E10D sweeps the
// overlay degree at fixed n (diameter/κ/cost trade-off); A1 is the
// ablation study of DESIGN.md §8.
var ExperimentIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E10D", "A1"}

// Run executes the experiment with the given id.
func Run(id string, opts Options) (*Report, error) {
	switch id {
	case "E1":
		return E1Fig1Decompositions(opts)
	case "E2":
		return E2MajorityCrash(opts)
	case "E3":
		return E3CommonCoinRounds(opts)
	case "E4":
		return E4RoundsVsClusters(opts)
	case "E5":
		return E5ObjectInvocations(opts)
	case "E6":
		return E6MessageComplexity(opts)
	case "E7":
		return E7ExtremeConfigs(opts)
	case "E8":
		return E8Indulgence(opts)
	case "E9":
		return E9ExtensionStack(opts)
	case "E10":
		return E10SparseOverlay(opts)
	case "E10D":
		return E10DegreeSweep(opts)
	case "A1":
		return A1Ablations(opts)
	}
	return nil, fmt.Errorf("harness: unknown experiment %q", id)
}

// E1Fig1Decompositions reproduces Figure 1 as an executable configuration:
// both n=7, m=3 cluster decompositions run both algorithms on random
// proposals, reporting rounds, messages, and consensus-object invocations.
func E1Fig1Decompositions(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{
		ID:       "E1",
		Title:    "Figure 1 decompositions (n=7, m=3), random proposals",
		Findings: map[string]float64{},
	}
	tb := stats.NewTable("E1: "+rep.Title,
		"partition", "algorithm", "decided%", "rounds(mean)", "rounds(p95)", "msgs(mean)", "cons-inv(mean)")
	parts := []struct {
		name string
		p    *model.Partition
	}{
		{"fig1-left 1-3/4-5/6-7", model.Fig1Left()},
		{"fig1-right 1/2-5/6-7", model.Fig1Right()},
	}
	for _, pc := range parts {
		for _, algo := range []string{core.AlgoLocalCoin, core.AlgoCommonCoin} {
			sum, err := runHybridTrials(pc.p, algo, "random", opts, nil)
			if err != nil {
				return nil, err
			}
			decidedPct := pct(sum.decided, sum.trials)
			tb.AddRowf(pc.name, algo, decidedPct,
				meanOr(sum.rounds, 0), p95Or(sum.rounds, 0),
				meanOr(sum.msgs, 0), meanOr(sum.consInv, 0))
			key := fmt.Sprintf("%s/%s", pc.name, algo)
			rep.Findings[key+"/decided_pct"] = decidedPct
			rep.Findings[key+"/rounds_mean"] = meanOr(sum.rounds, 0)
			rep.Findings[key+"/msgs_mean"] = meanOr(sum.msgs, 0)
		}
	}
	tb.AddNote("%d trials per row, crash-free", opts.Trials)
	rep.Table = tb
	return rep, nil
}

// E2MajorityCrash reproduces the paper's flagship fault-tolerance claim:
// crash 6 of 7 processes, keeping one member of Fig1Right's majority
// cluster P[2]. The hybrid algorithms decide ("one for all"); pure
// message-passing Ben-Or and the MP common-coin baseline block.
func E2MajorityCrash(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{
		ID:       "E2",
		Title:    "majority crash (6 of 7), survivor in majority cluster P[2]",
		Findings: map[string]float64{},
	}
	tb := stats.NewTable("E2: "+rep.Title,
		"system", "survivor decides%", "rounds(mean)", "blocked%")
	crashAt := failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}
	const n = 7
	survivor := model.ProcID(2) // p3 ∈ P[2]
	sched, err := failures.CrashAllExcept(n, crashAt, survivor)
	if err != nil {
		return nil, err
	}

	// Hybrid, both algorithms.
	part := model.Fig1Right()
	for _, algo := range []string{core.AlgoLocalCoin, core.AlgoCommonCoin} {
		sum, err := runHybridTrials(part, algo, "unanimous1", opts, sched)
		if err != nil {
			return nil, err
		}
		decidedPct := pct(sum.decided, sum.trials)
		tb.AddRowf("hybrid/"+algo, decidedPct, meanOr(sum.rounds, 0), pct(sum.blocked, sum.trials))
		rep.Findings["hybrid/"+algo+"/decided_pct"] = decidedPct
	}

	// Pure message-passing baselines: same failure pattern (they block by
	// design), same scenarios; only Protocol differs between the two.
	for _, name := range []string{benor.ProtocolName, mpcoin.ProtocolName} {
		outs, err := Sweep(trialScenarios(opts.Trials, func(trial int) protocol.Scenario {
			return protocol.Scenario{
				Protocol: name,
				Topology: protocol.Topology{N: n},
				Workload: protocol.Workload{Binary: proposalsFor("unanimous1", n, nil)},
				Seed:     opts.SeedBase + int64(trial),
				Faults:   sched,
			}
		}), opts.Parallelism)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		decided, blocked := 0, 0
		for _, out := range outs {
			if _, _, ok := out.Decided(); ok {
				decided++
			}
			if out.CountStatus(sim.StatusBlocked) > 0 {
				blocked++
			}
		}
		tb.AddRowf(name+" (m=n)", pct(decided, opts.Trials), 0.0, pct(blocked, opts.Trials))
		rep.Findings[name+"/decided_pct"] = pct(decided, opts.Trials)
	}
	tb.AddNote("%d trials per row; crash pattern: all but %v at %v", opts.Trials, survivor, crashAt)
	rep.Table = tb
	return rep, nil
}

// E3CommonCoinRounds measures Algorithm 3's decision-round distribution.
// Once every survivor holds the same estimate, each round decides with
// probability 1/2, so the expected number of rounds is 2 (paper §IV).
func E3CommonCoinRounds(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{
		ID:       "E3",
		Title:    "common-coin decision rounds (expected ≈ 2 after stabilization)",
		Findings: map[string]float64{},
	}
	tb := stats.NewTable("E3: "+rep.Title,
		"proposals", "partition", "rounds(mean)", "rounds(median)", "rounds(p95)", "max")
	for _, mode := range []string{"unanimous1", "split", "random"} {
		for _, pc := range []struct {
			name string
			p    *model.Partition
		}{
			{"fig1-left", model.Fig1Left()},
			{"singletons-7", model.Singletons(7)},
		} {
			sum, err := runHybridTrials(pc.p, core.AlgoCommonCoin, mode, opts, nil)
			if err != nil {
				return nil, err
			}
			if len(sum.rounds) == 0 {
				return nil, ErrNoData
			}
			desc, err := stats.Describe(sum.rounds)
			if err != nil {
				return nil, err
			}
			tb.AddRowf(mode, pc.name, desc.Mean, desc.Median, desc.P95, desc.Max)
			rep.Findings[mode+"/"+pc.name+"/rounds_mean"] = desc.Mean
		}
	}
	tb.AddNote("%d trials per row; the unanimity rows isolate the coin-matching wait (geometric, mean 2)", opts.Trials)
	rep.Table = tb
	return rep, nil
}

// E4RoundsVsClusters sweeps the cluster count m at fixed n: fewer clusters
// mean fewer independent voices (the cluster consensus collapses diversity)
// so the local-coin algorithm converges in fewer rounds; m=n is Ben-Or.
func E4RoundsVsClusters(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	const n = 12
	rep := &Report{
		ID:       "E4",
		Title:    fmt.Sprintf("local-coin rounds vs cluster count (n=%d, split proposals)", n),
		Findings: map[string]float64{},
	}
	tb := stats.NewTable("E4: "+rep.Title,
		"m", "decided%", "rounds(mean)", "rounds(p95)", "msgs(mean)", "cons-inv(mean)")
	for _, m := range []int{1, 2, 3, 4, 6, 12} {
		part, err := model.Blocks(n, m)
		if err != nil {
			return nil, err
		}
		sum, err := runHybridTrials(part, core.AlgoLocalCoin, "split", opts, nil)
		if err != nil {
			return nil, err
		}
		decidedPct := pct(sum.decided, sum.trials)
		tb.AddRowf(m, decidedPct, meanOr(sum.rounds, 0), p95Or(sum.rounds, 0),
			meanOr(sum.msgs, 0), meanOr(sum.consInv, 0))
		rep.Findings[fmt.Sprintf("m=%d/rounds_mean", m)] = meanOr(sum.rounds, 0)
	}
	tb.AddNote("%d trials per row; m=1 is the shared-memory extreme, m=n pure message passing (Ben-Or)", opts.Trials)
	rep.Table = tb
	return rep, nil
}

// E5ObjectInvocations measures the paper's §III-C comparison: per phase,
// the hybrid model touches m consensus objects system-wide and exactly 1
// per process, while the m&m model touches n system-wide and α_i+1 per
// process.
func E5ObjectInvocations(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{
		ID:       "E5",
		Title:    "consensus objects per phase: hybrid (m, 1/proc) vs m&m (n, α+1/proc)",
		Findings: map[string]float64{},
	}
	tb := stats.NewTable("E5: "+rep.Title,
		"system", "config", "n", "objects/phase", "inv/proc/phase(min)", "inv/proc/phase(max)")

	// Hybrid: unanimous 1-round runs make the per-phase accounting exact.
	hybrids := []struct {
		name string
		p    *model.Partition
	}{
		{"fig1-left (m=3)", model.Fig1Left()},
		{"fig1-right (m=3)", model.Fig1Right()},
		{"blocks n=10,m=5", mustBlocks(10, 5)},
	}
	ring8, err := mm.Ring(8)
	if err != nil {
		return nil, err
	}
	star8, err := mm.Star(8)
	if err != nil {
		return nil, err
	}
	mms := []struct {
		name string
		g    *mm.Graph
	}{
		{"fig2 (5 procs)", mm.Fig2()},
		{"ring-8", ring8},
		{"star-8", star8},
	}
	var scs []protocol.Scenario
	for _, pc := range hybrids {
		scs = append(scs, protocol.Scenario{
			Protocol:  core.ProtocolName,
			Topology:  protocol.Topology{Partition: pc.p},
			Workload:  protocol.Workload{Binary: proposalsFor("unanimous1", pc.p.N(), nil)},
			Algorithm: core.AlgoLocalCoin,
			Seed:      opts.SeedBase + 17,
			Bounds:    protocol.Bounds{MaxRounds: 10},
		})
	}
	// m&m: same 1-round accounting on the appendix graph and two synthetic
	// topologies.
	for _, gc := range mms {
		scs = append(scs, protocol.Scenario{
			Protocol: mm.ProtocolName,
			Topology: protocol.Topology{N: gc.g.N(), MMEdges: gc.g.EdgeList()},
			Workload: protocol.Workload{Binary: proposalsFor("unanimous1", gc.g.N(), nil)},
			Seed:     opts.SeedBase + 23,
			Bounds:   protocol.Bounds{MaxRounds: 10},
		})
	}
	outs, err := Sweep(scs, opts.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	// phases and objects per phase of one run.
	perPhase := func(out *protocol.Outcome) (phases, objs float64) {
		phases = float64(2 * out.MaxDecisionRound())
		for _, a := range out.Raw.(*sim.Result).ConsAllocations {
			objs += float64(a)
		}
		return phases, objs / phases
	}
	for i, pc := range hybrids {
		phases, objsPerPhase := perPhase(outs[i])
		invPerProcPhase := float64(outs[i].Metrics.ConsInvocations) / (float64(pc.p.N()) * phases)
		tb.AddRowf("hybrid", pc.name, pc.p.N(), objsPerPhase, invPerProcPhase, invPerProcPhase)
		rep.Findings["hybrid/"+pc.name+"/objects_per_phase"] = objsPerPhase
		rep.Findings["hybrid/"+pc.name+"/inv_per_proc_phase"] = invPerProcPhase
	}
	for i, gc := range mms {
		_, objsPerPhase := perPhase(outs[len(hybrids)+i])
		minInv, maxInv := -1.0, -1.0
		for p := 0; p < gc.g.N(); p++ {
			inv := float64(gc.g.InvocationsPerPhase(model.ProcID(p)))
			if minInv < 0 || inv < minInv {
				minInv = inv
			}
			if inv > maxInv {
				maxInv = inv
			}
		}
		tb.AddRowf("m&m", gc.name, gc.g.N(), objsPerPhase, minInv, maxInv)
		rep.Findings["mm/"+gc.name+"/objects_per_phase"] = objsPerPhase
		rep.Findings["mm/"+gc.name+"/inv_per_proc_phase_max"] = maxInv
	}
	tb.AddNote("crash-free unanimous runs (1 round, 2 phases); hybrid objects/phase = m, m&m = n")
	rep.Table = tb
	return rep, nil
}

func mustBlocks(n, m int) *model.Partition {
	p, err := model.Blocks(n, m)
	if err != nil {
		panic(err)
	}
	return p
}

// E6MessageComplexity sweeps n and verifies the Θ(n²) per-round message
// cost of the all-to-all pattern (plus the n² DECIDE echoes).
func E6MessageComplexity(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{
		ID:       "E6",
		Title:    "message complexity per round (all-to-all ⇒ Θ(n²))",
		Findings: map[string]float64{},
	}
	tb := stats.NewTable("E6: "+rep.Title,
		"n", "m", "rounds(mean)", "msgs(mean)", "msgs/(n²·(rounds+1))")
	for _, n := range []int{4, 8, 16, 32} {
		m := n / 4
		if m < 1 {
			m = 1
		}
		part, err := model.Blocks(n, m)
		if err != nil {
			return nil, err
		}
		sum, err := runHybridTrials(part, core.AlgoCommonCoin, "unanimous1", opts, nil)
		if err != nil {
			return nil, err
		}
		rounds := meanOr(sum.rounds, 0)
		msgs := meanOr(sum.msgs, 0)
		// Each round is one broadcast per process (n² messages); deciding
		// adds one DECIDE broadcast per process (≈ n² more). Normalizing by
		// n²·(rounds+1) should give ≈ 1 for every n.
		norm := msgs / (float64(n*n) * (rounds + 1))
		tb.AddRowf(n, m, rounds, msgs, norm)
		rep.Findings[fmt.Sprintf("n=%d/norm", n)] = norm
	}
	tb.AddNote("%d trials per row; common-coin algorithm, unanimous proposals", opts.Trials)
	rep.Table = tb
	return rep, nil
}

// E7ExtremeConfigs cross-checks the degenerate hybrid configurations
// against the native baselines: m=1 vs a single shared CAS object, and
// m=n vs Ben-Or (§II-A, §III-B).
func E7ExtremeConfigs(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	const n = 6
	rep := &Report{
		ID:       "E7",
		Title:    fmt.Sprintf("extreme configurations vs native baselines (n=%d)", n),
		Findings: map[string]float64{},
	}
	tb := stats.NewTable("E7: "+rep.Title,
		"system", "decided%", "rounds(mean)", "msgs(mean)", "cons-inv(mean)")

	// m=1 hybrid vs native shared memory.
	sum, err := runHybridTrials(model.SingleCluster(n), core.AlgoLocalCoin, "split", opts, nil)
	if err != nil {
		return nil, err
	}
	tb.AddRowf("hybrid m=1", pct(sum.decided, sum.trials),
		meanOr(sum.rounds, 0), meanOr(sum.msgs, 0), meanOr(sum.consInv, 0))
	rep.Findings["hybrid-m1/rounds_mean"] = meanOr(sum.rounds, 0)

	outs, err := Sweep(trialScenarios(opts.Trials, func(int) protocol.Scenario {
		return protocol.Scenario{
			Protocol: shconsensus.ProtocolName,
			Topology: protocol.Topology{N: n},
			Workload: protocol.Workload{Binary: proposalsFor("split", n, nil)},
		}
	}), opts.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	shDecided := 0
	var shInv []float64
	for _, out := range outs {
		if out.AllLiveDecided() {
			shDecided++
		}
		shInv = append(shInv, float64(out.Metrics.ConsInvocations))
	}
	tb.AddRowf("native shared memory", pct(shDecided, opts.Trials), 1.0, 0.0, meanOr(shInv, 0))
	rep.Findings["native-sh/decided_pct"] = pct(shDecided, opts.Trials)

	// m=n hybrid vs native Ben-Or.
	sum, err = runHybridTrials(model.Singletons(n), core.AlgoLocalCoin, "split", opts, nil)
	if err != nil {
		return nil, err
	}
	tb.AddRowf("hybrid m=n", pct(sum.decided, sum.trials),
		meanOr(sum.rounds, 0), meanOr(sum.msgs, 0), meanOr(sum.consInv, 0))
	rep.Findings["hybrid-mn/rounds_mean"] = meanOr(sum.rounds, 0)

	rng := rand.New(rand.NewPCG(uint64(opts.SeedBase)+77, 3))
	outs, err = Sweep(trialScenarios(opts.Trials, func(trial int) protocol.Scenario {
		return protocol.Scenario{
			Protocol: benor.ProtocolName,
			Topology: protocol.Topology{N: n},
			Workload: protocol.Workload{Binary: proposalsFor("split", n, rng)},
			Seed:     opts.SeedBase + int64(trial)*31,
			Bounds:   protocol.Bounds{MaxRounds: 10_000},
		}
	}), opts.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	var bRounds, bMsgs []float64
	bDecided := 0
	for _, out := range outs {
		if out.AllLiveDecided() {
			bDecided++
			bRounds = append(bRounds, float64(out.MaxDecisionRound()))
		}
		bMsgs = append(bMsgs, float64(out.Metrics.MsgsSent))
	}
	tb.AddRowf("native benor", pct(bDecided, opts.Trials),
		meanOr(bRounds, 0), meanOr(bMsgs, 0), 0.0)
	rep.Findings["native-benor/rounds_mean"] = meanOr(bRounds, 0)
	tb.AddNote("%d trials per row; split proposals; hybrid m=n uses the cluster machinery Ben-Or omits", opts.Trials)
	rep.Table = tb
	return rep, nil
}

// E8Indulgence verifies the safety half of indulgence (§III-B): under
// failure patterns violating the liveness condition, bounded-time runs
// never decide (and in particular never decide inconsistently).
func E8Indulgence(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{
		ID:       "E8",
		Title:    "indulgence under dead failure patterns (no unsafe termination)",
		Findings: map[string]float64{},
	}
	tb := stats.NewTable("E8: "+rep.Title,
		"partition", "algorithm", "trials", "decided runs", "safety violations")

	cases := []struct {
		name    string
		part    *model.Partition
		crashes []model.ProcID
	}{
		// Fig1Right with the whole majority cluster dead: 3 survivors
		// cover 3 ≤ 7/2.
		{"fig1-right, P[2] wiped", model.Fig1Right(), []model.ProcID{1, 2, 3, 4}},
		// Singletons with majority dead: the classical impossibility.
		{"singletons-5, 3 dead", model.Singletons(5), []model.ProcID{0, 1, 2}},
	}
	for _, tc := range cases {
		sched := failures.NewSchedule(tc.part.N())
		for _, p := range tc.crashes {
			if err := sched.Set(p, failures.Crash{
				At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart},
			}); err != nil {
				return nil, err
			}
		}
		if tc.part.LivenessHolds(sched.Crashed()) {
			return nil, fmt.Errorf("harness: E8 case %q unexpectedly live", tc.name)
		}
		for _, algo := range []string{core.AlgoLocalCoin, core.AlgoCommonCoin} {
			scs := trialScenarios(opts.Trials, func(trial int) protocol.Scenario {
				return protocol.Scenario{
					Protocol:  core.ProtocolName,
					Topology:  protocol.Topology{Partition: tc.part},
					Workload:  protocol.Workload{Binary: proposalsFor("split", tc.part.N(), nil)},
					Algorithm: algo,
					Seed:      opts.SeedBase + int64(trial)*53,
					Faults:    sched,
				}
			})
			// A violation is counted, not fatal: this row reports them.
			outs, errs := SweepCollect(scs, opts.Parallelism)
			decidedRuns, violations := 0, 0
			for i, out := range outs {
				if errs[i] != nil {
					return nil, fmt.Errorf("harness: E8 %q trial %d: %w", tc.name, i, errs[i])
				}
				if _, _, ok := out.Decided(); ok {
					decidedRuns++
				}
				if protocol.Check(scs[i], out) != nil {
					violations++
				}
			}
			tb.AddRowf(tc.name, algo, opts.Trials, decidedRuns, violations)
			key := fmt.Sprintf("%s/%s", tc.name, algo)
			rep.Findings[key+"/decided_runs"] = float64(decidedRuns)
			rep.Findings[key+"/violations"] = float64(violations)
		}
	}
	tb.AddNote("blocked runs end at quiescence; decided runs must be 0 under these patterns")
	rep.Table = tb
	return rep, nil
}
