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
	netOpts, err := sc.NetOptions(n, sc.Topology.Partition)
	if err != nil {
		return nil, err
	}
	res, err := Run(Config{
		N:              n,
		Proposals:      sc.Workload.Binary,
		Seed:           sc.Seed,
		Crashes:        sc.Faults,
		MaxRounds:      sc.Bounds.MaxRounds,
		MaxVirtualTime: sc.Bounds.MaxVirtualTime,
		MaxSteps:       sc.Bounds.MaxSteps,
		NetOptions:     netOpts,
	})
	if err != nil {
		return nil, err
	}
	return protocol.BinaryOutcome(ProtocolName, res), nil
}
