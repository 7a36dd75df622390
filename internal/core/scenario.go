package core

import "allforone/internal/protocol"

// ProtocolName is the registry name of the hybrid-model algorithms.
const ProtocolName = "hybrid"

// Registry algorithm names (Scenario.Algorithm).
const (
	AlgoLocalCoin  = "local-coin"
	AlgoCommonCoin = "common-coin"
)

func init() {
	protocol.MustRegister(protocol.Protocol{Info: protocol.Info{
		Name:         ProtocolName,
		Description:  "the paper's hybrid-model binary consensus (Algorithm 2 local-coin, Algorithm 3 common-coin)",
		Proposals:    protocol.ProposalsBinary,
		Topology:     protocol.TopologyPartition,
		HasNetwork:   true,
		StageCrashes: true,
		OneForAll:    true,
		Traceable:    true,
		Algorithms:   []string{AlgoLocalCoin, AlgoCommonCoin},
	}, Run: runScenario})
}

// runScenario runs a registry-validated Scenario on the hybrid model.
func runScenario(sc protocol.Scenario) (*protocol.Outcome, error) {
	res, err := RunVariant(sc, Hybrid)
	if err != nil {
		return nil, err
	}
	return protocol.BinaryOutcome(ProtocolName, res), nil
}
