package smr

import (
	"fmt"
	"strings"

	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// ProtocolName is the registry name of the replicated log.
const ProtocolName = "smr"

func init() {
	protocol.MustRegister(protocol.New(protocol.Info{
		Name:           ProtocolName,
		Description:    "replicated log over the hybrid model (one multivalued instance per slot)",
		Proposals:      protocol.ProposalsCommands,
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
		Commands:             sc.Workload.Commands,
		Slots:                sc.Workload.Slots,
		Seed:                 sc.Seed,
		Crashes:              sc.Faults,
		MaxRoundsPerInstance: sc.Bounds.MaxRounds,
		MaxVirtualTime:       sc.Bounds.MaxVirtualTime,
		MaxSteps:             sc.Bounds.MaxSteps,
		NetOptions:           netOpts,
	})
	if err != nil {
		return nil, err
	}
	// Per-slot agreement over all prefixes is the protocol's own safety
	// property; a violation is an invariant break, not a legal Outcome.
	if err := res.CheckLogAgreement(); err != nil {
		return nil, fmt.Errorf("smr: %w", err)
	}
	out := &protocol.Outcome{
		Protocol:         ProtocolName,
		Procs:            make([]protocol.ProcOutcome, len(res.Replicas)),
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
