// Configchoice: multivalued consensus on arbitrary values — an extension
// built on top of the paper's binary algorithms.
//
// Five coordinator replicas, split across two clusters, must agree on
// which configuration epoch to activate. Each proposes a candidate string;
// the classical multivalued-to-binary reduction (uniform reliable
// broadcast + one binary instance per candidate, here the paper's
// Algorithm 3) picks exactly one — and because the binary instances run on
// the hybrid machinery, the choice survives a majority crash as long as a
// majority cluster keeps one replica alive.
//
// Run with: go run ./examples/configchoice
package main

import (
	"fmt"
	"log"

	"allforone"
)

func main() {
	// Cluster 1 = {r1,r2,r3} (majority), cluster 2 = {r4,r5}.
	part, err := allforone.ParsePartition("1-3/4-5")
	if err != nil {
		log.Fatal(err)
	}
	proposals := []string{
		"epoch-17/primary=r1",
		"epoch-17/primary=r2",
		"epoch-18/primary=r2",
		"epoch-17/primary=r4",
		"epoch-18/primary=r5",
	}
	fmt.Println("clusters:", part)
	for i, p := range proposals {
		fmt.Printf("  r%d proposes %q\n", i+1, p)
	}

	// Crash-free run: everyone converges on one candidate.
	sc := allforone.Scenario{
		Protocol: allforone.ProtocolMultivalued,
		Topology: allforone.Topology{Partition: part},
		Workload: allforone.Workload{Values: proposals},
		Seed:     99,
	}
	res, err := allforone.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	val, count, ok := res.Decided()
	if !ok {
		log.Fatal("no replica decided")
	}
	fmt.Printf("\nchosen configuration: %q (%d/%d replicas, %d binary rounds, %d messages)\n",
		val, count, part.N(), res.MaxDecisionRound(), res.Metrics.MsgsSent)

	// Now the stress case: crash r2..r5, keeping only r1 in the majority
	// cluster {r1,r2,r3}. One for all: r1 still finishes the reduction.
	sched, err := allforone.CrashAllExcept(part.N(),
		allforone.CrashPoint{Round: 1, Phase: 1, Stage: allforone.StageRoundStart}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncrashing r2..r5 (4 of 5 replicas)...")
	sc.Seed = 100
	sc.Faults = sched
	res2, err := allforone.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	val2, _, ok := res2.Decided()
	if !ok {
		log.Fatal("survivor did not decide")
	}
	fmt.Printf("survivor r1 still activates %q — one for all, all for one.\n", val2)
}
