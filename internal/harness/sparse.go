package harness

import (
	"fmt"
	"math"
	"slices"
	"time"

	"allforone/internal/allconcur"
	"allforone/internal/core"
	"allforone/internal/gossip"
	"allforone/internal/overlay"
	"allforone/internal/protocol"
	"allforone/internal/stats"
)

// sparseProtocol is one protocol row of E10 and E10D: how to build its
// crash-free trial at n processes on a de Bruijn overlay of degree d, and
// how to normalize a run's message bill to msgs/round.
//
// Per-protocol round normalization: gossip divides by its round budget
// (every process ticks R rounds), allconcur is a single logical round
// (envelopes are its entire bill), and hybrid divides by rounds+1 (the +1
// is the DECIDE echo broadcast, as in E6).
type sparseProtocol struct {
	name  string
	build func(n, d int) protocol.Scenario
	norm  func(out *protocol.Outcome) float64
}

// sparseProtocols are the sparse-overlay family both experiments sweep.
var sparseProtocols = []sparseProtocol{
	{
		name: "gossip",
		build: func(n, d int) protocol.Scenario {
			return protocol.Scenario{
				Protocol: gossip.ProtocolName,
				Topology: protocol.Topology{N: n, Overlay: &overlay.Spec{Kind: overlay.KindDeBruijn, Degree: d}},
				Workload: protocol.Workload{Binary: proposalsFor("split", n, nil)},
			}
		},
		norm: func(out *protocol.Outcome) float64 {
			return float64(out.Metrics.MsgsSent) / float64(out.MaxDecisionRound())
		},
	},
	{
		name: "allconcur",
		build: func(n, d int) protocol.Scenario {
			values := make([]string, n)
			for i := range values {
				values[i] = fmt.Sprintf("v%d", i)
			}
			return protocol.Scenario{
				Protocol: allconcur.ProtocolName,
				Topology: protocol.Topology{N: n, Overlay: &overlay.Spec{Kind: overlay.KindDeBruijn, Degree: d}},
				Workload: protocol.Workload{Values: values},
			}
		},
		norm: func(out *protocol.Outcome) float64 {
			return float64(out.Metrics.MsgsSent) // one logical round
		},
	},
}

// denseBaseline is E10's Θ(n²) reference row: the hybrid protocol on n/4
// clusters, which ignores the overlay degree.
var denseBaseline = sparseProtocol{
	name: "hybrid",
	build: func(n, _ int) protocol.Scenario {
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
}

// sparseTrials caps the trials of an E10/E10D cell: the sweeps reach n=256
// where one hybrid trial is ~n² messages per round, and a handful of trials
// is plenty for a mean of a deterministic-shape quantity.
func sparseTrials(opts Options) int { return min(opts.Trials, 10) }

// msgsPerRound runs the cell's trials on Sweep under one uniform(0, 200µs)
// profile, trial t seeded seed0 + 271t, and returns their mean msgs/round.
// Sweep's Check demands that every crash-free run decide.
func (pr sparseProtocol) msgsPerRound(n, d int, seed0 int64, trials, parallelism int) (float64, error) {
	outs, err := Sweep(trialScenarios(trials, func(trial int) protocol.Scenario {
		sc := pr.build(n, d)
		sc.Profile = protocol.Uniform(0, 200*time.Microsecond)
		sc.Seed = seed0 + int64(trial)*271
		return sc
	}), parallelism)
	if err != nil {
		return 0, fmt.Errorf("harness: %s n=%d d=%d: %w", pr.name, n, d, err)
	}
	var cells []float64
	for _, out := range outs {
		cells = append(cells, pr.norm(out))
	}
	return meanOr(cells, 0), nil
}

// E10SparseOverlay measures the point of the sparse-overlay family: at a
// FIXED overlay degree d, the per-round message bill of gossip and
// allconcur grows linearly in n, while the hybrid model's all-to-all
// broadcast grows as n². The experiment sweeps n over doublings, runs all
// three protocols under one identical uniform delay profile, and reports
// each family's msgs/round doubling ratio — ≈ 2 for the sparse protocols
// against the dense baseline's ≈ 4 (DESIGN.md §6, EXPERIMENTS.md E10).
func E10SparseOverlay(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	trials := sparseTrials(opts)
	const degree = 4
	ns := []int{32, 64, 128, 256}

	rep := &Report{
		ID:       "E10",
		Title:    fmt.Sprintf("msgs/round vs n at fixed overlay degree d=%d (sparse Θ(n·d) vs dense Θ(n²))", degree),
		Findings: map[string]float64{},
	}
	tb := stats.NewTable("E10: "+rep.Title,
		"protocol", "n", "decided%", "msgs/round(mean)")
	for _, pr := range append(slices.Clip(sparseProtocols), denseBaseline) {
		perRound := make([]float64, 0, len(ns))
		for _, n := range ns {
			mean, err := pr.msgsPerRound(n, degree, opts.SeedBase+int64(n)*9001, trials, opts.Parallelism)
			if err != nil {
				return nil, err
			}
			perRound = append(perRound, mean)
			tb.AddRowf(pr.name, n, 100.0, mean)
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
	trials := sparseTrials(opts)
	const sweepN = 256

	rep := &Report{
		ID:       "E10D",
		Title:    fmt.Sprintf("msgs/round vs overlay degree d at fixed n=%d (diameter and κ vs cost)", sweepN),
		Findings: map[string]float64{},
	}
	tb := stats.NewTable("E10D: "+rep.Title,
		"protocol", "d", "D≤", "κ", "msgs/round(mean)")
	for _, d := range []int{3, 4, 6, 8, 12} {
		g, err := overlay.Spec{Kind: overlay.KindDeBruijn, Degree: d}.Build(sweepN, 0)
		if err != nil {
			return nil, fmt.Errorf("harness: E10D d=%d: %w", d, err)
		}
		rep.Findings[fmt.Sprintf("sweep/d=%d/diameter_bound", d)] = float64(g.DiameterBound())
		rep.Findings[fmt.Sprintf("sweep/d=%d/kappa", d)] = float64(g.Kappa())
		for _, pr := range sparseProtocols {
			mean, err := pr.msgsPerRound(sweepN, d, opts.SeedBase+int64(d)*31337, trials, opts.Parallelism)
			if err != nil {
				return nil, err
			}
			tb.AddRowf(pr.name, d, g.DiameterBound(), g.Kappa(), mean)
			rep.Findings[fmt.Sprintf("sweep/%s/d=%d/msgs_per_round", pr.name, d)] = mean
		}
	}

	tb.AddNote("%d trials per cell, crash-free, uniform(0, 200µs) profile; de Bruijn family at n=%d", trials, sweepN)
	tb.AddNote("d buys connectivity (κ = d−1) and a smaller diameter at a linear msgs/round cost")
	rep.Table = tb
	return rep, nil
}
