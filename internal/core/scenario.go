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
	protocol.MustRegister(protocol.New(protocol.Info{
		Name:           ProtocolName,
		Description:    "the paper's hybrid-model binary consensus (Algorithm 2 local-coin, Algorithm 3 common-coin)",
		Proposals:      protocol.ProposalsBinary,
		NeedsPartition: true,
		HasNetwork:     true,
		StageCrashes:   true,
		TimedCrashes:   true,
		Traceable:      true,
		Algorithms:     []string{AlgoLocalCoin, AlgoCommonCoin},
	}, runScenario))
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
func runScenario(sc *protocol.Scenario) (*protocol.Outcome, error) {
	algo, err := ParseAlgorithm(sc.Algorithm)
	if err != nil {
		return nil, err
	}
	part := sc.Topology.Partition
	netOpts, err := sc.NetOptions(part.N(), part)
	if err != nil {
		return nil, err
	}
	res, err := Run(Config{
		Partition:      part,
		Proposals:      sc.Workload.Binary,
		Algorithm:      algo,
		Seed:           sc.Seed,
		Crashes:        sc.Faults,
		MaxRounds:      sc.Bounds.MaxRounds,
		MaxVirtualTime: sc.Bounds.MaxVirtualTime,
		MaxSteps:       sc.Bounds.MaxSteps,
		Trace:          sc.Trace,
		NetOptions:     netOpts,
	})
	if err != nil {
		return nil, err
	}
	return protocol.BinaryOutcome(ProtocolName, res), nil
}
