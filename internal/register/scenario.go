package register

import (
	"allforone/internal/protocol"
)

// ProtocolName is the registry name of the scripted atomic register.
const ProtocolName = "register"

func init() {
	protocol.MustRegister(protocol.New(protocol.Info{
		Name:           ProtocolName,
		Description:    "cluster-aware ABD atomic register running scripted read/write workloads",
		Proposals:      protocol.ProposalsScripts,
		NeedsPartition: true,
		HasNetwork:     true,
		// Step-point crash plans have no (round, phase) anchor in a
		// register run; only timed crashes apply (the registry validator
		// rejects scenarios carrying step plans for this protocol).
		TimedCrashes: true,
	}, runScenario))
}

func runScenario(sc *protocol.Scenario) (*protocol.Outcome, error) {
	part := sc.Topology.Partition
	netOpts, err := sc.NetOptions(part.N(), part)
	if err != nil {
		return nil, err
	}
	scripts := make([][]Op, len(sc.Workload.Scripts))
	for i, script := range sc.Workload.Scripts {
		ops := make([]Op, len(script))
		for j, op := range script {
			kind := OpRead
			if op.Write {
				kind = OpWrite
			}
			ops[j] = Op{Kind: kind, Val: op.Val, After: op.After}
		}
		scripts[i] = ops
	}
	res, err := Run(Config{
		Partition:      part,
		Scripts:        scripts,
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
		// Register runs have no consensus decision; Decision stays empty
		// and per-operation results live in Raw (*register.Result).
		out.Procs[i] = protocol.ProcOutcome{Status: pr.Status}
	}
	return out, nil
}
