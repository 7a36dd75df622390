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
	"allforone/internal/consensusobj"
	"allforone/internal/driver"
	"allforone/internal/failures"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// ProtocolName is the registry name of the m=1 shared-memory baseline.
const ProtocolName = "shmem"

func init() {
	protocol.MustRegister(protocol.Protocol{Info: protocol.Info{
		Name:        ProtocolName,
		Description: "single compare&swap object consensus (the m=1 shared-memory degenerate case; no network)",
		Proposals:   protocol.ProposalsBinary,
		// No network: scenarios carrying a Profile are rejected. Timed
		// crashes are accepted but never strike: the whole run happens at
		// virtual time zero, before any timed instant can fire.
		StageCrashes: true,
	}, Run: runScenario})
}

// runScenario runs one registry-validated shared-memory consensus
// instance: every non-crashed process proposes to a single CAS consensus
// object, and all of them return the same decision after one operation
// each. A process with a crash plan whose point is at round 1 crashes
// before touching the object.
func runScenario(sc protocol.Scenario) (*protocol.Outcome, error) {
	props, crashes := sc.Workload.Binary, sc.Faults
	n := len(props)
	var ctr metrics.Counters
	obj := consensusobj.NewCAS()
	res := &sim.Result{Procs: make([]sim.ProcResult, n)}
	out, err := driver.RunHandlers(driver.Config{Crashes: crashes}, n, nil,
		func(i int, _ *driver.Handle) driver.Reactor {
			return driver.ReactorFunc(func(aborted bool) bool {
				id := model.ProcID(i)
				switch {
				case aborted:
				case crashes.ShouldCrash(id, failures.Point{Round: 1, Phase: 1, Stage: failures.StageBeforeDecide}):
					res.Procs[i] = sim.ProcResult{Status: sim.StatusCrashed, Round: 1}
				default:
					v := obj.Propose(props[i])
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
	return protocol.BinaryOutcome(ProtocolName, res), nil
}
