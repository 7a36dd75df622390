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
	protocol.MustRegister(protocol.Protocol{Info: protocol.Info{
		Name:        ProtocolName,
		Description: "leaderless atomic broadcast over a sparse overlay (AllConcur-style early termination)",
		Proposals:   protocol.ProposalsValues,
		Topology:    protocol.TopologyOverlay,
		HasNetwork:  true,
	}, Run: runScenario})
}

// Violations checks the atomic-broadcast invariants the uniform Outcome
// cannot show: every process that decided delivered the same set (set
// agreement: equal sizes and equal digests), and a run that quiesced with live processes undecided
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
		} else if f := r.Procs[first]; pr.Delivered != f.Delivered || pr.digest != f.digest {
			vs = append(vs, protocol.Violation{Property: "set-agreement",
				Err: fmt.Errorf("p%d and p%d delivered different sets, of %d and %d messages", first+1, p+1, f.Delivered, pr.Delivered)})
			break
		}
	}
	if !r.Quiesced || r.BoundedOut() {
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
