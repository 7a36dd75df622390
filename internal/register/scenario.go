package register

import (
	"fmt"

	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// ProtocolName is the registry name of the scripted atomic register.
const ProtocolName = "register"

func init() {
	protocol.MustRegister(protocol.Protocol{Info: protocol.Info{
		Name:        ProtocolName,
		Description: "cluster-aware ABD atomic register running scripted read/write workloads",
		Proposals:   protocol.ProposalsScripts,
		Topology:    protocol.TopologyPartition,
		HasNetwork:  true,
		OneForAll:   true,
		// No StageCrashes: a step-point crash plan has no (round, phase)
		// anchor in a register run, so only timed plans apply.
	}, Run: runScenario})
}

// Violations checks the run's history: a process that completed its
// script completed every operation of it, and some sequential register
// execution explains every completed operation (linearizability; a history
// longer than the checker's exact search supports goes unchecked).
func (r *Result) Violations(*protocol.Scenario) []protocol.Violation {
	var vs []protocol.Violation
	for p, pr := range r.Procs {
		for j, op := range pr.Ops {
			if pr.Status == sim.StatusDecided && !op.OK {
				vs = append(vs, protocol.Violation{Property: "script",
					Err: fmt.Errorf("p%d completed its script but operation %d failed", p+1, j)})
			}
		}
	}
	if h := r.History(); len(h) <= maxHistoryOps {
		if err := CheckLinearizable(h); err != nil {
			vs = append(vs, protocol.Violation{Property: "linearizability", Err: err})
		}
	}
	return vs
}
