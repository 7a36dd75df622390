// Package benor implements Ben-Or's randomized binary consensus (PODC
// 1983) for the pure message-passing model — the baseline Algorithm 2
// extends, and exactly what Algorithm 2 "boils down to" when every cluster
// contains a single process (paper §III-B). It runs as such: Algorithm 2 on
// core's round machine (core.RunVariant) with no cluster step, on seeds of
// its own.
//
// Per the paper, the communication pattern simplifies: the supporters sets
// are replaced by a simple count of each value received during the phase.
// The algorithm requires a majority of correct processes; with n/2 or more
// crashes it blocks (but stays safe — it is indulgent).
package benor

import (
	"errors"
	"fmt"

	"allforone/internal/coin"
	"allforone/internal/core"
	"allforone/internal/model"
	"allforone/internal/sim"
)

// Config describes one Ben-Or execution.
type Config struct {
	// N is the number of processes (required).
	N int
	// Proposals holds each process's proposed binary value (required,
	// length N).
	Proposals []model.Value
	// Setup is the run's seed, crash pattern, bounds and delay policy. A
	// crash plan at StageAfterClusterConsensus has no counterpart here and
	// triggers at the next step point.
	sim.Setup
	// MaxRounds bounds execution; 0 = unbounded.
	MaxRounds int
	// LocalCoinOverride, when non-nil, supplies each process's coin.
	LocalCoinOverride func(p model.ProcID) coin.Local
}

// Errors returned by Run.
var (
	ErrBadConfig       = errors.New("benor: invalid configuration")
	ErrInvariantBroken = errors.New("benor: protocol invariant broken")
)

// Run executes one Ben-Or consensus instance and returns per-process
// outcomes.
func Run(cfg Config) (*sim.Result, error) {
	if len(cfg.Proposals) != cfg.N {
		return nil, fmt.Errorf("%w: %d proposals for %d processes", ErrBadConfig, len(cfg.Proposals), cfg.N)
	}
	return core.RunVariant(core.Config{
		Setup:             cfg.Setup,
		Proposals:         cfg.Proposals,
		Algorithm:         core.LocalCoin,
		MaxRounds:         cfg.MaxRounds,
		LocalCoinOverride: cfg.LocalCoinOverride,
	}, core.Variant{
		NetSalt:            0x9e6c_63d0_876a_9a7d,
		SubsetSalt:         0x1405_7b7e_f767_814f,
		ErrBadConfig:       ErrBadConfig,
		ErrInvariantBroken: ErrInvariantBroken,
	})
}
