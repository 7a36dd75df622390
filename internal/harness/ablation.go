package harness

import (
	"errors"
	"fmt"

	"allforone/internal/core"
	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/stats"
	"allforone/internal/trace"
)

// A1Ablations quantifies what each design ingredient of Algorithm 2 buys,
// by disabling one at a time (DESIGN.md §6):
//
//   - cluster closure OFF → the one-for-all property disappears: the
//     majority-crash pattern of E2 blocks instead of deciding;
//   - intra-cluster consensus OFF → the closure's premise (cluster
//     uniformity) is violated, observable in traces and occasionally as a
//     collapsed rec-set invariant.
func A1Ablations(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{
		ID:       "A1",
		Title:    "ablations: what closure and cluster consensus buy",
		Findings: map[string]float64{},
	}
	tb := stats.NewTable("A1: "+rep.Title,
		"variant", "scenario", "decided%", "uniformity violations%")

	// Scenario 1: the E2 majority-crash pattern, full vs closure-ablated.
	part := model.Fig1Right()
	crashAt := failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}
	for _, variant := range []struct {
		name   string
		ablate bool
	}{
		{"full algorithm", false},
		{"closure OFF", true},
	} {
		decided := 0
		for trial := 0; trial < opts.Trials; trial++ {
			sched, err := failures.CrashAllExcept(part.N(), crashAt, 2)
			if err != nil {
				return nil, err
			}
			res, err := core.Run(core.Config{
				Partition:     part,
				Proposals:     proposalsFor("unanimous1", part.N(), nil),
				Algorithm:     core.LocalCoin,
				Seed:          opts.SeedBase + int64(trial)*101,
				MaxRounds:     1000,
				Crashes:       sched,
				AblateClosure: variant.ablate,
			})
			if err != nil {
				return nil, err
			}
			if err := res.CheckAgreement(); err != nil {
				return nil, err
			}
			if _, _, ok := res.Decided(); ok {
				decided++
			}
		}
		decidedPct := 100 * float64(decided) / float64(opts.Trials)
		tb.AddRowf(variant.name, "majority crash (6/7)", decidedPct, 0.0)
		rep.Findings[variant.name+"/majority_crash_decided_pct"] = decidedPct
	}

	// Scenario 2: split proposals inside a cluster, full vs
	// cluster-consensus-ablated; count uniformity violations.
	split := []model.Value{
		model.Zero, model.One, model.Zero, // split inside P[1] of Fig1Left
		model.One, model.One,
		model.Zero, model.Zero,
	}
	leftPart := model.Fig1Left()
	for _, variant := range []struct {
		name   string
		ablate bool
	}{
		{"full algorithm", false},
		{"cluster consensus OFF", true},
	} {
		violations := 0
		decided := 0
		for trial := 0; trial < opts.Trials; trial++ {
			log := trace.New()
			res, err := core.Run(core.Config{
				Partition:              leftPart,
				Proposals:              split,
				Algorithm:              core.LocalCoin,
				Seed:                   opts.SeedBase + int64(trial)*211,
				MaxRounds:              200,
				Trace:                  log,
				AblateClusterConsensus: variant.ablate,
			})
			if err != nil {
				if errors.Is(err, core.ErrInvariantBroken) && variant.ablate {
					violations++ // the corrupted accounting collapsed
					continue
				}
				return nil, fmt.Errorf("harness: A1 trial %d: %w", trial, err)
			}
			if trace.CheckClusterUniformity(log, leftPart) != nil {
				violations++
			}
			if res.AllLiveDecided() {
				decided++
			}
		}
		violPct := 100 * float64(violations) / float64(opts.Trials)
		decidedPct := 100 * float64(decided) / float64(opts.Trials)
		tb.AddRowf(variant.name, "split inside cluster", decidedPct, violPct)
		rep.Findings[variant.name+"/uniformity_violations_pct"] = violPct
	}
	tb.AddNote("%d trials per row; violations are detected over full event traces", opts.Trials)
	rep.Table = tb
	return rep, nil
}
