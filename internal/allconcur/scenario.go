package allconcur

import (
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// ProtocolName is the registry name of the AllConcur-style broadcast.
const ProtocolName = "allconcur"

func init() {
	protocol.MustRegister(protocol.New(protocol.Info{
		Name:         ProtocolName,
		Description:  "leaderless atomic broadcast over a sparse overlay (AllConcur-style early termination)",
		Proposals:    protocol.ProposalsValues,
		HasNetwork:   true,
		TimedCrashes: true,
		NeedsOverlay: true,
		SubQuadratic: true,
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
		Proposals:      sc.Workload.Values,
		Spec:           *sc.Topology.Overlay,
		Seed:           sc.Seed,
		Crashes:        sc.Faults,
		MaxVirtualTime: sc.Bounds.MaxVirtualTime,
		MaxSteps:       sc.Bounds.MaxSteps,
		NetOptions:     netOpts,
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
		po := protocol.ProcOutcome{Status: pr.Status}
		if pr.Status == sim.StatusDecided {
			po.Decision = pr.Decision
			po.Round = 1 // atomic broadcast is a single logical round
		}
		out.Procs[i] = po
	}
	return out, nil
}
