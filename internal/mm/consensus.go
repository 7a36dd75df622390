package mm

import (
	"errors"
	"fmt"

	"allforone/internal/consensusobj"
	"allforone/internal/core"
	"allforone/internal/model"
	"allforone/internal/protocol"
)

// ProtocolName is the registry name of the m&m comparator.
const ProtocolName = "mm"

// ErrInvariantBroken reports a run that broke the round machine's
// invariant.
var ErrInvariantBroken = errors.New("mm: protocol invariant broken")

func init() {
	protocol.MustRegister(protocol.Protocol{Info: protocol.Info{
		Name:         ProtocolName,
		Description:  "m&m-model consensus comparator (graph-induced overlapping memories, Aguilera et al.)",
		Proposals:    protocol.ProposalsBinary,
		Topology:     protocol.TopologyGraph,
		HasNetwork:   true,
		StageCrashes: true,
	}, Run: runScenario})
}

// runScenario runs one m&m consensus instance of a registry-validated
// scenario: Ben-Or's algorithm on core's round machine (core.RunVariant)
// with the memory step before each exchange. Result.ConsInvocations and
// ConsAllocations are indexed by center process.
//
// The algorithm is the structural m&m analog of the paper's Algorithm 2,
// faithful to the cost model of §III-C (not a re-implementation of
// Aguilera et al.'s specific protocols): at each phase, process p_i
// proposes its estimate to the consensus object of every memory it can
// access — its own centered memory and each neighbor's, α_i + 1 objects —
// and adopts the value decided by its own centered object. The message
// exchange then counts supporters per process: because memory domains
// overlap, the cluster-closure ("one for all") accounting of the hybrid
// model is unsound here, exactly as the paper observes.
func runScenario(sc protocol.Scenario) (*protocol.Outcome, error) {
	n := len(sc.Workload.Binary)
	g, err := NewGraph(n, sc.Topology.MMEdges)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", protocol.ErrBadScenario, err)
	}
	arrays := consensusobj.NewArrays(n)
	// memoryPropose performs the m&m shared-memory step of one phase:
	// propose est to the consensus object of every accessible memory (own
	// centered memory plus each neighbor's — α_i + 1 invocations) and adopt
	// the value decided by the own-centered object.
	memoryPropose := func(p model.ProcID, r, ph int, est model.Value) model.Value {
		own := arrays[p].Propose(r, ph, est)
		for _, q := range g.Neighbors(p) {
			arrays[q].Propose(r, ph, est)
		}
		return own
	}
	res, err := core.RunVariant(sc, core.Variant{
		Algorithm:          core.AlgoLocalCoin,
		Memory:             memoryPropose,
		NetSalt:            0xc2b2_ae3d_27d4_eb4f,
		SubsetSalt:         0x1216_d5d9_8979_fb1b,
		ErrInvariantBroken: ErrInvariantBroken,
	})
	if err != nil {
		return nil, err
	}
	res.ConsInvocations = make([]int64, n)
	res.ConsAllocations = make([]int64, n)
	for i := range arrays {
		res.ConsInvocations[i] = arrays[i].Invocations()
		res.ConsAllocations[i] = arrays[i].Allocations()
		res.Metrics.ConsInvocations += res.ConsInvocations[i]
	}
	return protocol.BinaryOutcome(ProtocolName, res), nil
}
