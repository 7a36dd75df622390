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
	"errors"
	"fmt"

	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/sim"
	"allforone/internal/smr"
)

// Config describes one multivalued consensus execution.
type Config struct {
	// Partition is the cluster decomposition (required).
	Partition *model.Partition
	// Proposals holds each process's proposed value (required, length n).
	// Values may repeat; the empty string is a valid proposal.
	Proposals []string
	// Setup is the run's seed, crash pattern, bounds and delay policy.
	// Crash points are consulted at the start of every binary round, with
	// Round counting binary rounds globally across instances.
	sim.Setup
	// MaxInstances bounds the number of binary instances (0 = 4n).
	MaxInstances int
	// MaxRoundsPerInstance bounds each binary instance (0 = 1000).
	MaxRoundsPerInstance int
}

// Errors returned by Run.
var ErrBadConfig = errors.New("multivalued: invalid configuration")

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

// Run executes one multivalued consensus instance.
func Run(cfg Config) (*Result, error) {
	if cfg.Partition == nil {
		return nil, fmt.Errorf("%w: nil partition", ErrBadConfig)
	}
	n := cfg.Partition.N()
	if len(cfg.Proposals) != n {
		return nil, fmt.Errorf("%w: %d proposals for %d processes", ErrBadConfig, len(cfg.Proposals), n)
	}
	cmds := make([][]string, n)
	for i := range cmds {
		cmds[i] = cfg.Proposals[i : i+1 : i+1]
	}
	log, err := smr.RunVariant(smr.Config{
		Partition:            cfg.Partition,
		Commands:             cmds,
		Slots:                1,
		Setup:                cfg.Setup,
		MaxRoundsPerInstance: cfg.MaxRoundsPerInstance,
	}, smr.Variant{
		NetSalt:      0x60be_e2be_e120_fc15,
		InstMix:      0x9e37_79b9_7f4a_7c15,
		MaxInstances: cfg.MaxInstances,
		SupportNoOps: true,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Procs: make([]ProcResult, n), Metrics: log.Metrics, Engine: log.Engine}
	for i, rep := range log.Replicas {
		res.Procs[i] = ProcResult{Status: rep.Status, Rounds: rep.Rounds}
		if rep.Status == sim.StatusDecided {
			res.Procs[i].Decision = rep.Log[0]
		}
	}
	return res, nil
}
