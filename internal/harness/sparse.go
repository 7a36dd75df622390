package harness

import (
	"fmt"
	"math"
	"time"

	"allforone/internal/allconcur"
	"allforone/internal/core"
	"allforone/internal/gossip"
	"allforone/internal/overlay"
	"allforone/internal/protocol"
	"allforone/internal/stats"
)

// E10SparseOverlay measures the point of the sparse-overlay family: at a
// FIXED overlay degree d, the per-round message bill of gossip and
// allconcur grows linearly in n, while the hybrid model's all-to-all
// broadcast grows as n². The experiment sweeps n over doublings, runs all
// three protocols under one identical uniform delay profile, and reports
// each family's msgs/round doubling ratio — ≈ 2 for the sparse protocols
// against the dense baseline's ≈ 4 (DESIGN.md §13, EXPERIMENTS.md E10).
//
// Per-protocol round normalization: gossip divides by its round budget
// (every process ticks R rounds), allconcur is a single logical round
// (envelopes are its entire bill), and hybrid divides by rounds+1 (the +1
// is the DECIDE echo broadcast, as in E6).
func E10SparseOverlay(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	// The sweep reaches n=256 where one hybrid trial is ~n² messages per
	// round; a handful of trials is plenty for a mean of a deterministic-
	// shape quantity, so cap the per-cell budget.
	trials := opts.Trials
	if trials > 10 {
		trials = 10
	}
	const degree = 4
	ns := []int{32, 64, 128, 256}

	rep := &Report{
		ID:       "E10",
		Title:    fmt.Sprintf("msgs/round vs n at fixed overlay degree d=%d (sparse Θ(n·d) vs dense Θ(n²))", degree),
		Findings: map[string]float64{},
	}
	tb := stats.NewTable("E10: "+rep.Title,
		"protocol", "n", "decided%", "msgs/round(mean)")

	protos := []struct {
		name  string
		build func(n, trial int) protocol.Scenario
		norm  func(out *protocol.Outcome) float64
	}{
		{
			name: "gossip",
			build: func(n, trial int) protocol.Scenario {
				return protocol.Scenario{
					Protocol: gossip.ProtocolName,
					Topology: protocol.Topology{
						N:       n,
						Overlay: &overlay.Spec{Kind: overlay.KindDeBruijn, Degree: degree},
					},
					Workload: protocol.Workload{Binary: proposalsFor("split", n, nil)},
				}
			},
			norm: func(out *protocol.Outcome) float64 {
				return float64(out.Metrics.MsgsSent) / float64(out.MaxDecisionRound())
			},
		},
		{
			name: "allconcur",
			build: func(n, trial int) protocol.Scenario {
				values := make([]string, n)
				for i := range values {
					values[i] = fmt.Sprintf("v%d", i)
				}
				return protocol.Scenario{
					Protocol: allconcur.ProtocolName,
					Topology: protocol.Topology{
						N:       n,
						Overlay: &overlay.Spec{Kind: overlay.KindDeBruijn, Degree: degree},
					},
					Workload: protocol.Workload{Values: values},
				}
			},
			norm: func(out *protocol.Outcome) float64 {
				return float64(out.Metrics.MsgsSent) // one logical round
			},
		},
		{
			name: "hybrid",
			build: func(n, trial int) protocol.Scenario {
				return protocol.Scenario{
					Protocol:  core.ProtocolName,
					Topology:  protocol.Topology{Partition: mustBlocks(n, n/4)},
					Workload:  protocol.Workload{Binary: proposalsFor("split", n, nil)},
					Algorithm: core.AlgoCommonCoin,
					Bounds:    protocol.Bounds{MaxRounds: 10_000},
				}
			},
			norm: func(out *protocol.Outcome) float64 {
				// One all-to-all broadcast per round plus the DECIDE echo.
				return float64(out.Metrics.MsgsSent) / float64(out.MaxDecisionRound()+1)
			},
		},
	}

	for _, pr := range protos {
		perRound := make([]float64, 0, len(ns))
		for _, n := range ns {
			scs := make([]protocol.Scenario, trials)
			for trial := range scs {
				sc := pr.build(n, trial)
				sc.Profile = protocol.Uniform(0, 200*time.Microsecond)
				sc.Seed = opts.SeedBase + int64(n)*9001 + int64(trial)*271
				scs[trial] = sc
			}
			outs, err := Sweep(scs, opts.Parallelism)
			if err != nil {
				return nil, fmt.Errorf("harness: E10 %s n=%d: %w", pr.name, n, err)
			}
			decided := 0
			var cells []float64
			for trial, out := range outs {
				if err := out.CheckAgreement(); err != nil {
					return nil, fmt.Errorf("harness: E10 %s n=%d trial %d: %w", pr.name, n, trial, err)
				}
				if !out.AllLiveDecided() {
					return nil, fmt.Errorf("harness: E10 %s n=%d trial %d: crash-free run did not decide: %+v",
						pr.name, n, trial, out.Procs[:min(8, len(out.Procs))])
				}
				decided++
				cells = append(cells, pr.norm(out))
			}
			mean := meanOr(cells, 0)
			perRound = append(perRound, mean)
			tb.AddRowf(pr.name, n, 100*float64(decided)/float64(trials), mean)
			rep.Findings[fmt.Sprintf("%s/n=%d/msgs_per_round", pr.name, n)] = mean
		}
		// Geometric-mean doubling ratio across the sweep: how the bill
		// multiplies when n doubles (2 = linear, 4 = quadratic).
		ratio := math.Pow(perRound[len(perRound)-1]/perRound[0], 1/float64(len(perRound)-1))
		rep.Findings[pr.name+"/doubling_ratio"] = ratio
	}

	tb.AddNote("%d trials per cell, crash-free, uniform(0, 200µs) profile; de Bruijn overlay d=%d for the sparse rows", trials, degree)
	tb.AddNote("doubling ratios (msgs/round when n doubles): gossip %.2f, allconcur %.2f, hybrid %.2f",
		rep.Findings["gossip/doubling_ratio"], rep.Findings["allconcur/doubling_ratio"], rep.Findings["hybrid/doubling_ratio"])
	rep.Table = tb
	return rep, nil
}

// E10DegreeSweep holds n fixed and sweeps the overlay degree — d is the
// sparse family's resilience knob: raising it shrinks the diameter bound
// (fewer hops, a tighter gossip round budget) and raises the vertex
// connectivity κ = d−1 (a bigger fault budget), while the per-round bill
// grows linearly in d. The sweep quantifies that three-way trade-off for
// both sparse protocols on one topology family.
func E10DegreeSweep(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	trials := opts.Trials
	if trials > 10 {
		trials = 10
	}
	const sweepN = 256

	rep := &Report{
		ID:       "E10D",
		Title:    fmt.Sprintf("msgs/round vs overlay degree d at fixed n=%d (diameter and κ vs cost)", sweepN),
		Findings: map[string]float64{},
	}
	tb := stats.NewTable("E10D: "+rep.Title,
		"protocol", "d", "D≤", "κ", "msgs/round(mean)")

	protos := []struct {
		name  string
		build func(n, trial int) protocol.Scenario
		norm  func(out *protocol.Outcome) float64
	}{
		{
			name: "gossip",
			build: func(n, trial int) protocol.Scenario {
				return protocol.Scenario{
					Protocol: gossip.ProtocolName,
					Topology: protocol.Topology{N: n},
					Workload: protocol.Workload{Binary: proposalsFor("split", n, nil)},
				}
			},
			norm: func(out *protocol.Outcome) float64 {
				return float64(out.Metrics.MsgsSent) / float64(out.MaxDecisionRound())
			},
		},
		{
			name: "allconcur",
			build: func(n, trial int) protocol.Scenario {
				values := make([]string, n)
				for i := range values {
					values[i] = fmt.Sprintf("v%d", i)
				}
				return protocol.Scenario{
					Protocol: allconcur.ProtocolName,
					Topology: protocol.Topology{N: n},
					Workload: protocol.Workload{Values: values},
				}
			},
			norm: func(out *protocol.Outcome) float64 {
				return float64(out.Metrics.MsgsSent) // one logical round
			},
		},
	}

	for _, d := range []int{3, 4, 6, 8, 12} {
		spec := overlay.Spec{Kind: overlay.KindDeBruijn, Degree: d}
		g, err := spec.Build(sweepN, 0)
		if err != nil {
			return nil, fmt.Errorf("harness: E10D d=%d: %w", d, err)
		}
		rep.Findings[fmt.Sprintf("sweep/d=%d/diameter_bound", d)] = float64(g.DiameterBound())
		rep.Findings[fmt.Sprintf("sweep/d=%d/kappa", d)] = float64(g.Kappa())
		for _, pr := range protos {
			scs := make([]protocol.Scenario, trials)
			for trial := range scs {
				sc := pr.build(sweepN, trial)
				sc.Topology.Overlay = &overlay.Spec{Kind: overlay.KindDeBruijn, Degree: d}
				sc.Profile = protocol.Uniform(0, 200*time.Microsecond)
				sc.Seed = opts.SeedBase + int64(d)*31337 + int64(trial)*271
				scs[trial] = sc
			}
			outs, err := Sweep(scs, opts.Parallelism)
			if err != nil {
				return nil, fmt.Errorf("harness: E10D %s d=%d: %w", pr.name, d, err)
			}
			var cells []float64
			for trial, out := range outs {
				if err := out.CheckAgreement(); err != nil {
					return nil, fmt.Errorf("harness: E10D %s d=%d trial %d: %w", pr.name, d, trial, err)
				}
				if !out.AllLiveDecided() {
					return nil, fmt.Errorf("harness: E10D %s d=%d trial %d: crash-free run did not decide", pr.name, d, trial)
				}
				cells = append(cells, pr.norm(out))
			}
			mean := meanOr(cells, 0)
			tb.AddRowf(pr.name, d, g.DiameterBound(), g.Kappa(), mean)
			rep.Findings[fmt.Sprintf("sweep/%s/d=%d/msgs_per_round", pr.name, d)] = mean
		}
	}

	tb.AddNote("%d trials per cell, crash-free, uniform(0, 200µs) profile; de Bruijn family at n=%d", trials, sweepN)
	tb.AddNote("d buys connectivity (κ = d−1) and a smaller diameter at a linear msgs/round cost")
	rep.Table = tb
	return rep, nil
}
