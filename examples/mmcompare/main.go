// mmcompare: the hybrid model vs the m&m model (paper §III-C, appendix).
//
// The m&m model of Aguilera et al. (PODC 2018) induces shared memories
// from a graph: process p_i owns a memory shared with its neighbors, so
// memories overlap and each process must touch α_i + 1 consensus objects
// per phase (its own plus one per neighbor). The paper's hybrid model
// partitions processes into disjoint clusters instead: exactly one
// consensus object per process per phase, m objects system-wide.
//
// This example measures both on comparable 5-process topologies — the
// paper's Figure-2 graph for m&m, a 2-cluster partition for hybrid — and
// then demonstrates the qualitative difference: the hybrid model's
// one-for-all closure survives a majority crash; the m&m model does not.
//
// Run with: go run ./examples/mmcompare
package main

import (
	"fmt"
	"log"

	"allforone"
)

func main() {
	const n = 5
	unanimous := make([]allforone.Value, n)
	for i := range unanimous {
		unanimous[i] = allforone.One
	}

	// --- Cost accounting on crash-free unanimous runs (1 round). ---
	fmt.Println("== consensus-object cost per phase (crash-free, 1 round) ==")

	graph := allforone.Fig2Graph()
	fmt.Println("m&m memory domains:", graph)
	// The m&m topology is declarative too: the graph travels as an edge
	// list in the scenario.
	mmScenario := allforone.Scenario{
		Protocol: allforone.ProtocolMM,
		Topology: allforone.Topology{N: n, MMEdges: graph.EdgeList()},
		Workload: allforone.Workload{Binary: unanimous},
		Seed:     3,
		Bounds:   allforone.Bounds{MaxRounds: 10},
	}
	mres, err := allforone.Run(mmScenario)
	if err != nil {
		log.Fatal(err)
	}
	// 2 phases in round 1: per-phase = total / 2.
	fmt.Printf("m&m:    %d objects touched, %d propose() calls per phase (α_i+1 per process)\n",
		graph.ObjectsPerPhase(), mres.Metrics.ConsInvocations/2)

	part, err := allforone.ParsePartition("1-3/4-5")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("hybrid clusters:   ", part)
	hybridScenario := allforone.Scenario{
		Protocol:  allforone.ProtocolHybrid,
		Topology:  allforone.Topology{Partition: part},
		Workload:  allforone.Workload{Binary: unanimous},
		Algorithm: allforone.AlgoLocalCoin,
		Seed:      3,
		Bounds:    allforone.Bounds{MaxRounds: 10},
	}
	hres, err := allforone.Run(hybridScenario)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hybrid: %d objects touched, %d propose() calls per phase (exactly 1 per process)\n\n",
		part.M(), hres.Metrics.ConsInvocations/2)

	// --- The qualitative gap: majority crash. ---
	fmt.Println("== majority crash: 3 of 5 processes die at round 1 ==")
	crashAt := allforone.CrashPoint{Round: 1, Phase: 1, Stage: allforone.StageRoundStart}

	// Hybrid: p1 survives in cluster {p1,p2,p3} (3 > 5/2) — decides.
	hsched, err := allforone.CrashAllExcept(n, crashAt, 0, 3)
	if err != nil {
		log.Fatal(err)
	}
	hybridScenario.Seed = 5
	hybridScenario.Faults = hsched
	hybridScenario.Bounds.MaxRounds = 100
	hres2, err := allforone.Run(hybridScenario)
	if err != nil {
		log.Fatal(err)
	}
	val, count, _ := hres2.Decided()
	fmt.Printf("hybrid: survivors decide %v (%d deciders) — cluster closure covers %d ≥ majority\n",
		val, count, part.Size(0))

	// m&m: same crash set; survivors p1, p4 cover only themselves.
	msched, err := allforone.CrashAllExcept(n, crashAt, 0, 3)
	if err != nil {
		log.Fatal(err)
	}
	mmScenario.Seed = 5
	mmScenario.Faults = msched
	mmScenario.Bounds = allforone.Bounds{} // it blocks: the run ends at quiescence, not at a round cap
	mres2, err := allforone.Run(mmScenario)
	if err != nil {
		log.Fatal(err)
	}
	if _, _, decided := mres2.Decided(); decided {
		log.Fatal("unexpected: m&m decided without a correct majority")
	}
	fmt.Println("m&m:    survivors blocked forever — overlapping memories give no closure,")
	fmt.Println("        so a correct majority is still required (no one-for-all property).")
}
