// Package mpcoin implements the pure message-passing common-coin binary
// consensus algorithm that Algorithm 3 of the paper extends: the
// crash-failure adaptation (after Raynal 2018) of the Byzantine consensus
// protocol of Friedman, Mostéfaoui & Raynal (IEEE TDSC 2005).
//
// Rounds have a single phase: broadcast the estimate, collect reports from
// a majority of processes, then consult the common coin. If a value v is
// reported by more than n/2 processes the process adopts it and decides
// when the round's coin bit equals v; otherwise it adopts the coin bit.
// Like every pure message-passing consensus, it requires a majority of
// correct processes.
//
// It is Algorithm 3 with every cluster a single process, and runs as such:
// on core's round machine (core.RunVariant) with no cluster step, on seeds
// of its own.
package mpcoin

import (
	"errors"
	"fmt"

	"allforone/internal/coin"
	"allforone/internal/core"
	"allforone/internal/model"
	"allforone/internal/sim"
)

// Config describes one execution.
type Config struct {
	// N is the number of processes (required).
	N int
	// Proposals holds each process's binary proposal (required, length N).
	Proposals []model.Value
	// Setup is the run's seed, crash pattern, bounds and delay policy.
	sim.Setup
	// MaxRounds bounds execution; 0 = unbounded.
	MaxRounds int
	// CommonCoinOverride, when non-nil, replaces the seeded common coin.
	CommonCoinOverride coin.Common
}

// Errors returned by Run.
var (
	ErrBadConfig       = errors.New("mpcoin: invalid configuration")
	ErrInvariantBroken = errors.New("mpcoin: protocol invariant broken")
)

// Run executes one consensus instance and returns per-process outcomes.
func Run(cfg Config) (*sim.Result, error) {
	if len(cfg.Proposals) != cfg.N {
		return nil, fmt.Errorf("%w: %d proposals for %d processes", ErrBadConfig, len(cfg.Proposals), cfg.N)
	}
	return core.RunVariant(core.Config{
		Setup:              cfg.Setup,
		Proposals:          cfg.Proposals,
		Algorithm:          core.CommonCoin,
		MaxRounds:          cfg.MaxRounds,
		CommonCoinOverride: cfg.CommonCoinOverride,
	}, core.Variant{
		NetSalt:            0x27d4_eb2f_1656_67c5,
		SubsetSalt:         0x5851_f42d_4c95_7f2d,
		CoinSalt:           0x1656_67c5_27d4_eb2f,
		ErrBadConfig:       ErrBadConfig,
		ErrInvariantBroken: ErrInvariantBroken,
	})
}
