// Package shconsensus implements the m = 1 degenerate case of the hybrid
// model (paper §II-A): all processes share one memory, the message-passing
// facility is useless, and consensus is solved deterministically and
// wait-free by a single compare&swap consensus object — tolerating any
// number of crashes.
//
// It serves as the efficiency anchor of the experiments: one shared-memory
// operation per process, zero messages, zero rounds of exchange. Like every
// runner in the repository it executes through internal/driver: each process
// is a reactor whose first invocation is its one step, and the first spawned
// live process deterministically wins the CAS.
package shconsensus

import (
	"errors"
	"fmt"

	"allforone/internal/consensusobj"
	"allforone/internal/driver"
	"allforone/internal/failures"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/sim"
)

// Config describes one shared-memory consensus execution.
type Config struct {
	// N is the number of processes (required).
	N int
	// Proposals holds each process's binary proposal (required, length N).
	Proposals []model.Value
	// Crashes marks processes that crash before proposing: any process with
	// a plan whose point is at round 1 crashes before touching the object.
	// Timed crashes are effectively meaningless here — the whole run is
	// instantaneous (every propose happens at virtual time zero, before
	// any timed instant can fire), so use step-point plans instead.
	Crashes *failures.Schedule
}

// ErrBadConfig reports an invalid configuration.
var ErrBadConfig = errors.New("shconsensus: invalid configuration")

// Run executes one shared-memory consensus instance: every non-crashed
// process proposes to a single CAS consensus object. All of them return the
// same decision after one operation each.
func Run(cfg Config) (*sim.Result, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("%w: need at least one process", ErrBadConfig)
	}
	if len(cfg.Proposals) != cfg.N {
		return nil, fmt.Errorf("%w: %d proposals for %d processes", ErrBadConfig, len(cfg.Proposals), cfg.N)
	}
	for i, v := range cfg.Proposals {
		if !v.IsBinary() {
			return nil, fmt.Errorf("%w: proposal of %v is %v", ErrBadConfig, model.ProcID(i), v)
		}
	}

	var ctr metrics.Counters
	obj := consensusobj.NewCAS()
	res := &sim.Result{Procs: make([]sim.ProcResult, cfg.N)}
	out, err := driver.RunHandlers(driver.Config{Crashes: cfg.Crashes}, cfg.N, nil,
		func(i int, _ *driver.Handle) driver.Reactor {
			return driver.ReactorFunc(func(aborted bool) bool {
				id := model.ProcID(i)
				switch {
				case aborted:
				case cfg.Crashes.ShouldCrash(id, failures.Point{Round: 1, Phase: 1, Stage: failures.StageBeforeDecide}):
					res.Procs[i] = sim.ProcResult{Status: sim.StatusCrashed, Round: 1}
				default:
					v := obj.Propose(cfg.Proposals[i])
					ctr.AddConsInvocations(1)
					ctr.ObserveRound(1)
					res.Procs[i] = sim.ProcResult{Status: sim.StatusDecided, Decision: v, Round: 1}
				}
				return true // one step: propose, or crash before it
			})
		})
	if err != nil {
		return nil, err
	}
	res.Engine = out
	res.Metrics = ctr.Read()
	res.ConsInvocations = []int64{res.Metrics.ConsInvocations}
	res.ConsAllocations = []int64{1}
	return res, nil
}
