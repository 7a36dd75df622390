package mm

import (
	"errors"
	"fmt"

	"allforone/internal/coin"
	"allforone/internal/consensusobj"
	"allforone/internal/core"
	"allforone/internal/model"
	"allforone/internal/sim"
)

// Config describes one m&m consensus execution.
//
// The algorithm is the structural m&m analog of the paper's Algorithm 2,
// faithful to the cost model of §III-C (not a re-implementation of
// Aguilera et al.'s specific protocols): at each phase, process p_i
// proposes its estimate to the consensus object of every memory it can
// access — its own centered memory and each neighbor's, α_i + 1 objects —
// and adopts the value decided by its own centered object. The message
// exchange then counts supporters per process: because memory domains
// overlap, the cluster-closure ("one for all") accounting of the hybrid
// model is unsound here, exactly as the paper observes.
type Config struct {
	// Graph induces the shared-memory domains (required).
	Graph *Graph
	// Proposals holds each process's binary proposal (required, length n).
	Proposals []model.Value
	// Setup is the run's seed, crash pattern, bounds and delay policy.
	sim.Setup
	// MaxRounds bounds execution; 0 = unbounded.
	MaxRounds int
	// LocalCoinOverride, when non-nil, supplies each process's coin.
	LocalCoinOverride func(p model.ProcID) coin.Local
}

// Errors returned by Run.
var (
	ErrBadConfig       = errors.New("mm: invalid configuration")
	ErrInvariantBroken = errors.New("mm: protocol invariant broken")
)

// Run executes one m&m consensus instance and returns per-process outcomes:
// Ben-Or's algorithm on core's round machine (core.RunVariant) with the
// memory step before each exchange. Result.ConsInvocations/ConsAllocations
// are indexed by center process.
func Run(cfg Config) (*sim.Result, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadConfig)
	}
	n := cfg.Graph.N()
	if len(cfg.Proposals) != n {
		return nil, fmt.Errorf("%w: %d proposals for %d processes", ErrBadConfig, len(cfg.Proposals), n)
	}

	arrays := consensusobj.NewArrays(n)
	// memoryPropose performs the m&m shared-memory step of one phase:
	// propose est to the consensus object of every accessible memory (own
	// centered memory plus each neighbor's — α_i + 1 invocations) and adopt
	// the value decided by the own-centered object.
	memoryPropose := func(p model.ProcID, r, ph int, est model.Value) model.Value {
		own := arrays[p].Propose(r, ph, est)
		for _, q := range cfg.Graph.Neighbors(p) {
			arrays[q].Propose(r, ph, est)
		}
		return own
	}
	res, err := core.RunVariant(core.Config{
		Setup:             cfg.Setup,
		Proposals:         cfg.Proposals,
		Algorithm:         core.LocalCoin,
		MaxRounds:         cfg.MaxRounds,
		LocalCoinOverride: cfg.LocalCoinOverride,
	}, core.Variant{
		Memory:             memoryPropose,
		NetSalt:            0xc2b2_ae3d_27d4_eb4f,
		SubsetSalt:         0x1216_d5d9_8979_fb1b,
		ErrBadConfig:       ErrBadConfig,
		ErrInvariantBroken: ErrInvariantBroken,
	})
	if err != nil {
		return nil, err
	}
	res.ConsInvocations = make([]int64, n)
	res.ConsAllocations = make([]int64, n)
	for i := range arrays {
		res.ConsInvocations[i] = arrays[i].Invocations()
		res.ConsAllocations[i] = arrays[i].Allocations()
		res.Metrics.ConsInvocations += res.ConsInvocations[i]
	}
	return res, nil
}
