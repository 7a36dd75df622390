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
	}, runScenario))
}

func runScenario(sc *protocol.Scenario) (*protocol.Outcome, error) {
	part := sc.Topology.Partition
	netOpts, err := sc.NetOptions(part.N(), part)
	if err != nil {
		return nil, err
	}
	res, err := Run(Config{
		Partition:            part,
		Proposals:            sc.Workload.Values,
		Seed:                 sc.Seed,
		Crashes:              sc.Faults,
		MaxInstances:         sc.Bounds.MaxInstances,
		MaxRoundsPerInstance: sc.Bounds.MaxRounds,
		MaxVirtualTime:       sc.Bounds.MaxVirtualTime,
		MaxSteps:             sc.Bounds.MaxSteps,
		NetOptions:           netOpts,
	})
	if err != nil {
		return nil, err
	}
	out := &protocol.Outcome{
		Protocol:         ProtocolName,
		Procs:            make([]protocol.ProcOutcome, len(res.Procs)),
		Metrics:          res.Metrics,
		Elapsed:          res.Elapsed,
		VirtualTime:      res.VirtualTime,
		Steps:            res.Steps,
		Quiesced:         res.Quiesced,
		DeadlineExceeded: res.DeadlineExceeded,
		StepsExceeded:    res.StepsExceeded,
		Sched:            res.Sched,
		Raw:              res,
	}
	for i, pr := range res.Procs {
		po := protocol.ProcOutcome{Status: pr.Status, Round: pr.Rounds}
		if pr.Status == sim.StatusDecided {
			po.Decision = pr.Decision
		}
		out.Procs[i] = po
	}
	return out, nil
}
