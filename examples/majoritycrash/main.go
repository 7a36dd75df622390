// Majority crash: the paper's flagship fault-tolerance scenario (§III-B,
// conclusion).
//
// Classical message-passing consensus needs a majority of correct
// processes — with 6 of 7 crashed it is hopeless. In the hybrid model, one
// surviving member of a majority cluster speaks for the whole cluster
// ("one for all and all for one"), so consensus still terminates.
//
// This example runs both systems on the same failure pattern:
//
//  1. hybrid Algorithm 2 on Figure-1 (right): survivor p3 ∈ P[2] decides;
//  2. pure message-passing Ben-Or: the survivor blocks (the run ends at
//     quiescence), but never decides wrongly — the algorithm is indulgent.
//
// Run with: go run ./examples/majoritycrash
package main

import (
	"fmt"
	"log"

	"allforone"
)

func main() {
	const n = 7
	survivor := allforone.ProcID(2) // p3, a member of the majority cluster P[2]
	unanimous := make([]allforone.Value, n)
	for i := range unanimous {
		unanimous[i] = allforone.One
	}
	crashAt := allforone.CrashPoint{Round: 1, Phase: 1, Stage: allforone.StageRoundStart}

	// --- Hybrid model: majority cluster with a single survivor. ---
	part := allforone.Fig1Right()
	sched, err := allforone.CrashAllExcept(n, crashAt, survivor)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("partition:", part)
	fmt.Printf("failure pattern: crash all but %v (6 of 7 processes!)\n", survivor)
	fmt.Println("liveness condition holds:", part.LivenessHolds(sched.Crashed()))

	// One declarative Scenario describes the whole experiment; the two
	// systems differ only in the Protocol field.
	sc := allforone.Scenario{
		Protocol:  allforone.ProtocolHybrid,
		Topology:  allforone.Topology{Partition: part},
		Workload:  allforone.Workload{Binary: unanimous},
		Algorithm: allforone.AlgoLocalCoin,
		Seed:      7,
		Faults:    sched,
		Bounds:    allforone.Bounds{MaxRounds: 1000},
	}
	res, err := allforone.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	pr := res.Procs[survivor]
	fmt.Printf("hybrid:  %v decided %v at round %d — one for all!\n\n", survivor, pr.Decision, pr.Round)

	// --- Same scenario, pure message passing (Ben-Or). ---
	fmt.Println("now the same failure pattern under pure message passing (m = n)...")
	sc.Protocol = allforone.ProtocolBenOr
	sc.Algorithm = "" // local-coin/common-coin is a hybrid-only choice
	bres, err := allforone.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	bpr := bres.Procs[survivor]
	fmt.Printf("ben-or:  %v is %v forever — a majority of correct processes is necessary here.\n",
		survivor, bpr.Status)
	if _, _, decided := bres.Decided(); decided {
		log.Fatal("unexpected: Ben-Or decided without a correct majority")
	}
	fmt.Println("         (and it never decided wrongly: the algorithm is indulgent)")
}
