package shconsensus

import (
	"allforone/internal/protocol"
)

// ProtocolName is the registry name of the m=1 shared-memory baseline.
const ProtocolName = "shmem"

func init() {
	protocol.MustRegister(protocol.New(protocol.Info{
		Name:        ProtocolName,
		Description: "single compare&swap object consensus (the m=1 shared-memory degenerate case; no network)",
		Proposals:   protocol.ProposalsBinary,
		// No network: scenarios carrying a Profile are rejected. Timed
		// crashes are accepted but effectively meaningless (the whole run
		// happens at virtual time zero — see Config.Crashes).
		StageCrashes: true,
		TimedCrashes: true,
	}, runScenario))
}

func runScenario(sc *protocol.Scenario) (*protocol.Outcome, error) {
	n, err := sc.Topology.Procs()
	if err != nil {
		return nil, err
	}
	res, err := Run(Config{
		N:         n,
		Proposals: sc.Workload.Binary,
		Crashes:   sc.Faults,
	})
	if err != nil {
		return nil, err
	}
	return protocol.BinaryOutcome(ProtocolName, res), nil
}
