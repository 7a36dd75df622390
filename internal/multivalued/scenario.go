package multivalued

import (
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// ProtocolName is the registry name of multivalued hybrid consensus.
const ProtocolName = "multivalued"

func init() {
	protocol.MustRegister(protocol.New(protocol.Info{
		Name:           ProtocolName,
		Description:    "multivalued consensus over the hybrid model (URB + binary-instance reduction)",
		Proposals:      protocol.ProposalsValues,
		NeedsPartition: true,
		HasNetwork:     true,
		StageCrashes:   true,
		TimedCrashes:   true,
		OneForAll:      true,
	}, runScenario))
}

func runScenario(sc *protocol.Scenario) (*protocol.Outcome, error) {
	setup, err := sc.Setup()
	if err != nil {
		return nil, err
	}
	res, err := Run(Config{
		Setup:                setup,
		Partition:            sc.Topology.Partition,
		Proposals:            sc.Workload.Values,
		MaxInstances:         sc.Bounds.MaxInstances,
		MaxRoundsPerInstance: sc.Bounds.MaxRounds,
	})
	if err != nil {
		return nil, err
	}
	return outcome(res), nil
}

// outcome renders a Result in the registry's uniform vocabulary.
func outcome(res *Result) *protocol.Outcome {
	out := &protocol.Outcome{
		Protocol: ProtocolName,
		Procs:    make([]protocol.ProcOutcome, len(res.Procs)),
		Metrics:  res.Metrics,
		Engine:   res.Engine,
		Raw:      res,
	}
	for i, pr := range res.Procs {
		po := protocol.ProcOutcome{Status: pr.Status, Round: pr.Rounds}
		if pr.Status == sim.StatusDecided {
			po.Decision = pr.Decision
		}
		out.Procs[i] = po
	}
	return out
}
