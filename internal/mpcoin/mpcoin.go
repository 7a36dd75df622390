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

	"allforone/internal/core"
	"allforone/internal/protocol"
)

// ProtocolName is the registry name of the message-passing common-coin
// baseline.
const ProtocolName = "mpcoin"

// ErrInvariantBroken reports a run that broke the round machine's
// invariant.
var ErrInvariantBroken = errors.New("mpcoin: protocol invariant broken")

// variant is the algorithm on the round machine: Algorithm 3 with no
// cluster step, on seeds of its own.
var variant = core.Variant{
	Algorithm:          core.AlgoCommonCoin,
	NetSalt:            0x27d4_eb2f_1656_67c5,
	SubsetSalt:         0x5851_f42d_4c95_7f2d,
	CoinSalt:           0x1656_67c5_27d4_eb2f,
	ErrInvariantBroken: ErrInvariantBroken,
}

func init() {
	protocol.MustRegister(protocol.Protocol{Info: protocol.Info{
		Name:         ProtocolName,
		Description:  "pure message-passing common-coin binary consensus (the baseline Algorithm 3 extends)",
		Proposals:    protocol.ProposalsBinary,
		HasNetwork:   true,
		StageCrashes: true,
		OneForAll:    true,
	}, Run: runScenario})
}

// runScenario runs a registry-validated scenario on the round machine.
func runScenario(sc protocol.Scenario) (*protocol.Outcome, error) {
	res, err := core.RunVariant(sc, variant)
	if err != nil {
		return nil, err
	}
	return protocol.BinaryOutcome(ProtocolName, res), nil
}
