package allconcur

import (
	"errors"
	"fmt"

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

// Violations checks the atomic-broadcast invariants the uniform Outcome
// cannot show: every process that decided delivered a set of the same size
// (set agreement), and a run that quiesced with live processes undecided
// had its overlay disconnected by the crashes — while the live processes
// still reach one another, failure notices flow and the run must finish.
func (r *Result) Violations(sc *protocol.Scenario) []protocol.Violation {
	var vs []protocol.Violation
	first := -1
	for p, pr := range r.Procs {
		if pr.Status != sim.StatusDecided {
			continue
		}
		if first < 0 {
			first = p
		} else if pr.Delivered != r.Procs[first].Delivered {
			vs = append(vs, protocol.Violation{Property: "set-agreement",
				Err: fmt.Errorf("p%d delivered %d messages, p%d %d", first+1, r.Procs[first].Delivered, p+1, pr.Delivered)})
			break
		}
	}
	if !r.Quiesced || r.DeadlineExceeded || r.StepsExceeded {
		return vs
	}
	dead := make([]bool, len(r.Procs))
	blocked := false
	for p, pr := range r.Procs {
		dead[p] = pr.Status == sim.StatusCrashed
		blocked = blocked || pr.Status == sim.StatusBlocked
	}
	if !blocked {
		return vs
	}
	g, err := sc.Topology.Overlay.Build(len(r.Procs), sc.Seed)
	if err == nil && g.StronglyConnectedWithout(dead) {
		vs = append(vs, protocol.Violation{Property: "liveness",
			Err: errors.New("the run quiesced with live processes undecided, but the crashes left the live overlay strongly connected")})
	}
	return vs
}
