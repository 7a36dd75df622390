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

	"allforone/internal/core"
	"allforone/internal/protocol"
)

// ProtocolName is the registry name of the Ben-Or baseline.
const ProtocolName = "benor"

// ErrInvariantBroken reports a run that broke the round machine's
// invariant.
var ErrInvariantBroken = errors.New("benor: protocol invariant broken")

// variant is Ben-Or on the round machine: Algorithm 2 with no cluster step,
// on seeds of its own. A crash plan at StageAfterClusterConsensus has no
// counterpart here and triggers at the next step point.
var variant = core.Variant{
	Algorithm:          core.AlgoLocalCoin,
	NetSalt:            0x9e6c_63d0_876a_9a7d,
	SubsetSalt:         0x1405_7b7e_f767_814f,
	ErrInvariantBroken: ErrInvariantBroken,
}

func init() {
	protocol.MustRegister(protocol.Protocol{Info: protocol.Info{
		Name:         ProtocolName,
		Description:  "Ben-Or's pure message-passing binary consensus (the m=n baseline)",
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
