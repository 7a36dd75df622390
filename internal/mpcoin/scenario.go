package mpcoin

import (
	"allforone/internal/protocol"
)

// ProtocolName is the registry name of the message-passing common-coin
// baseline.
const ProtocolName = "mpcoin"

func init() {
	protocol.MustRegister(protocol.New(protocol.Info{
		Name:         ProtocolName,
		Description:  "pure message-passing common-coin binary consensus (the baseline Algorithm 3 extends)",
		Proposals:    protocol.ProposalsBinary,
		HasNetwork:   true,
		StageCrashes: true,
		TimedCrashes: true,
		OneForAll:    true,
	}, runScenario))
}

func runScenario(sc *protocol.Scenario) (*protocol.Outcome, error) {
	n, err := sc.Topology.Procs()
	if err != nil {
		return nil, err
	}
	setup, err := sc.Setup()
	if err != nil {
		return nil, err
	}
	res, err := Run(Config{
		Setup:     setup,
		N:         n,
		Proposals: sc.Workload.Binary,
		MaxRounds: sc.Bounds.MaxRounds,
	})
	if err != nil {
		return nil, err
	}
	return protocol.BinaryOutcome(ProtocolName, res), nil
}
