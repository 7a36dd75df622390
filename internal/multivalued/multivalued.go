// Package multivalued extends the paper's binary consensus to arbitrary
// proposal values — the classical reduction from multivalued to binary
// consensus (as in Raynal 2018, and Cachin-Guerraoui-Rodrigues 2011),
// instantiated over the hybrid communication model so that it inherits the
// one-for-all fault tolerance.
//
// Construction:
//
//  1. Every process URB-broadcasts PROP(i, v_i) (uniform reliable
//     broadcast: forward on first receipt, deliver after forwarding — if
//     any process delivers, every correct process eventually delivers).
//  2. Processes run binary consensus instances k = 0, 1, 2, … (on process
//     index k mod n, cycling). The input of instance k is 1 iff PROP of
//     the target process has been delivered. Each instance is the paper's
//     Algorithm 3 (common coin, cluster consensus, closure accounting).
//  3. The first instance that decides 1 selects its target's proposal:
//     processes wait for the (guaranteed) URB delivery and decide that
//     value, broadcasting MV-DECIDE so that stragglers terminate.
//
// Termination: once every correct process has delivered every correct
// process's proposal, the next instance targeting a correct process gets
// unanimous input 1 and must decide 1. Under the paper's liveness
// condition (clusters with a survivor covering a majority), the embedded
// binary instances terminate with probability 1, so the reduction does
// too — including under majority crashes that keep a majority-cluster
// survivor.
//
// The reduction runs on smr's replica machine as a log of one slot
// (smr.RunVariant), with "" a proposal like any other.
package multivalued

import (
	"allforone/internal/metrics"
	"allforone/internal/protocol"
	"allforone/internal/sim"
	"allforone/internal/smr"
)

// ProtocolName is the registry name of multivalued hybrid consensus.
const ProtocolName = "multivalued"

func init() {
	protocol.MustRegister(protocol.Protocol{Info: protocol.Info{
		Name:         ProtocolName,
		Description:  "multivalued consensus over the hybrid model (URB + binary-instance reduction)",
		Proposals:    protocol.ProposalsValues,
		Topology:     protocol.TopologyPartition,
		HasNetwork:   true,
		StageCrashes: true,
		OneForAll:    true,
	}, Run: runScenario})
}

// ProcResult is one process's outcome.
type ProcResult struct {
	Status   sim.Status
	Decision string // meaningful iff Status == StatusDecided
	Rounds   int    // total binary rounds executed
}

// Result aggregates a run.
type Result struct {
	Procs   []ProcResult
	Metrics metrics.Snapshot
	sim.Engine
}

// runScenario runs a registry-validated scenario on smr's replica machine
// as a one-slot log of each process's proposal. Crash points are consulted
// at the start of every binary round, with Round counting binary rounds
// globally across instances; Bounds.MaxInstances caps the binary instances
// (0 = 4n) and Bounds.MaxRounds each instance's rounds (0 = 1000).
func runScenario(sc protocol.Scenario) (*protocol.Outcome, error) {
	vals := sc.Workload.Values
	cmds := make([][]string, len(vals))
	for i := range cmds {
		cmds[i] = vals[i : i+1 : i+1]
	}
	sc.Workload = protocol.Workload{Commands: cmds, Slots: 1}
	log, err := smr.RunVariant(&sc, smr.Variant{
		NetSalt:      0x60be_e2be_e120_fc15,
		InstMix:      0x9e37_79b9_7f4a_7c15,
		SupportNoOps: true,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Procs: make([]ProcResult, len(vals)), Metrics: log.Metrics, Engine: log.Engine}
	for i, rep := range log.Replicas {
		res.Procs[i] = ProcResult{Status: rep.Status, Rounds: rep.Rounds}
		if rep.Status == sim.StatusDecided {
			res.Procs[i].Decision = rep.Log[0]
		}
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
