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
