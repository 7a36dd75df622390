package core

import (
	"fmt"

	"allforone/internal/protocol"
)

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

// ParseAlgorithm resolves a Scenario.Algorithm name; empty picks the
// common-coin algorithm (the paper's efficient one: expected two rounds).
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "", AlgoCommonCoin:
		return CommonCoin, nil
	case AlgoLocalCoin:
		return LocalCoin, nil
	}
	return 0, fmt.Errorf("%w: unknown algorithm %q", ErrBadConfig, name)
}

// runScenario compiles a registry-validated Scenario onto Config and runs
// it.
func runScenario(sc protocol.Scenario) (*protocol.Outcome, error) {
	algo, err := ParseAlgorithm(sc.Algorithm)
	if err != nil {
		return nil, err
	}
	setup, err := sc.Setup()
	if err != nil {
		return nil, err
	}
	res, err := Run(Config{
		Setup:     setup,
		Partition: sc.Topology.Partition,
		Proposals: sc.Workload.Binary,
		Algorithm: algo,
		MaxRounds: sc.Bounds.MaxRounds,
		Trace:     sc.Trace,
	})
	if err != nil {
		return nil, err
	}
	return protocol.BinaryOutcome(ProtocolName, res), nil
}
