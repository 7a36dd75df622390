package mm

import (
	"allforone/internal/protocol"
)

// ProtocolName is the registry name of the m&m comparator.
const ProtocolName = "mm"

func init() {
	protocol.MustRegister(protocol.New(protocol.Info{
		Name:         ProtocolName,
		Description:  "m&m-model consensus comparator (graph-induced overlapping memories, Aguilera et al.)",
		Proposals:    protocol.ProposalsBinary,
		NeedsGraph:   true,
		HasNetwork:   true,
		StageCrashes: true,
		TimedCrashes: true,
	}, runScenario))
}

func runScenario(sc *protocol.Scenario) (*protocol.Outcome, error) {
	n, err := sc.Topology.Procs()
	if err != nil {
		return nil, err
	}
	g, err := NewGraph(n, sc.Topology.MMEdges)
	if err != nil {
		return nil, err
	}
	setup, err := sc.Setup()
	if err != nil {
		return nil, err
	}
	res, err := Run(Config{
		Setup:     setup,
		Graph:     g,
		Proposals: sc.Workload.Binary,
		MaxRounds: sc.Bounds.MaxRounds,
	})
	if err != nil {
		return nil, err
	}
	return protocol.BinaryOutcome(ProtocolName, res), nil
}
