package benor

import (
	"allforone/internal/protocol"
)

// ProtocolName is the registry name of the Ben-Or baseline.
const ProtocolName = "benor"

func init() {
	protocol.MustRegister(protocol.New(protocol.Info{
		Name:         ProtocolName,
		Description:  "Ben-Or's pure message-passing binary consensus (the m=n baseline)",
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
