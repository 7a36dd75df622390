package smr

import (
	"strings"

	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// ProtocolName is the registry name of the replicated log.
const ProtocolName = "smr"

func init() {
	protocol.MustRegister(protocol.Protocol{Info: protocol.Info{
		Name:         ProtocolName,
		Description:  "replicated log over the hybrid model (one multivalued instance per slot)",
		Proposals:    protocol.ProposalsCommands,
		Topology:     protocol.TopologyPartition,
		HasNetwork:   true,
		StageCrashes: true,
		OneForAll:    true,
	}, Run: runScenario})
}

func runScenario(sc protocol.Scenario) (*protocol.Outcome, error) {
	res, err := RunVariant(&sc, logVariant)
	if err != nil {
		return nil, err
	}
	out := &protocol.Outcome{
		Protocol: ProtocolName,
		Procs:    make([]protocol.ProcOutcome, len(res.Replicas)),
		Metrics:  res.Metrics,
		Engine:   res.Engine,
		Raw:      res,
	}
	for i, rr := range res.Replicas {
		po := protocol.ProcOutcome{Status: rr.Status, Round: rr.Rounds}
		if rr.Status == sim.StatusDecided {
			// A replica "decides" when it completed every slot; the joined
			// log is its decision in the uniform vocabulary.
			po.Decision = strings.Join(rr.Log, protocol.LogSep)
		}
		out.Procs[i] = po
	}
	return out, nil
}

// Violations checks what the joined Decision strings cannot show: every
// two replicas' logs, finished or not, agree slot by slot, and every slot
// holds a proposed command or a no-op.
func (r *Result) Violations(sc *protocol.Scenario) []protocol.Violation {
	var vs []protocol.Violation
	if err := r.CheckLogAgreement(); err != nil {
		vs = append(vs, protocol.Violation{Property: "log-agreement", Err: err})
	}
	if err := r.CheckLogValidity(sc.Workload.Commands); err != nil {
		vs = append(vs, protocol.Violation{Property: "validity", Err: err})
	}
	return vs
}
