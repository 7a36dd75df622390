// Reproducible: the virtual engine's determinism and the sweep executor.
//
// The execution engine is a discrete-event simulation on a virtual
// clock: a run is a pure function of its Config, so the same seed replays
// the same execution bit for bit — same decisions, same rounds, same
// message counts, same simulated duration. That makes single runs
// debuggable (a failing seed IS the repro) and bulk experiments cheap:
// thousands of seeded runs spread across all cores, none of them sleeping
// a single real millisecond.
//
// Run with: go run ./examples/reproducible
package main

import (
	"fmt"
	"log"
	"reflect"
	"time"

	"allforone"
)

func main() {
	part := allforone.Fig1Right() // n=7: {p1} {p2..p5} {p6,p7}
	sc := allforone.Scenario{
		Protocol: allforone.ProtocolHybrid,
		Topology: allforone.Topology{Partition: part},
		Workload: allforone.Workload{Binary: []allforone.Value{1, 0, 0, 1, 0, 1, 1}},
		Seed:     424242,
		Bounds:   allforone.Bounds{MaxRounds: 10_000},
		// Determinism is not limited to uniform delays: any profile — here
		// an asymmetric per-link skew — replays bit for bit.
		Profile: allforone.DistanceSkewProfile(200*time.Microsecond, 150*time.Microsecond),
	}

	// 1. Replay: two runs of one Scenario are identical, field for field.
	first, err := allforone.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	second, err := allforone.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seed %d: decided in %d rounds, %d messages, %v simulated\n",
		sc.Seed, first.MaxDecisionRound(), first.Metrics.MsgsSent, first.VirtualTime)
	fmt.Println("replay identical:", reflect.DeepEqual(first, second))

	// 2. Sweep: a thousand seeded scenarios across all cores. Outcomes
	// arrive in input order, independent of the worker pool's interleaving.
	scs := make([]allforone.Scenario, 1000)
	for i := range scs {
		scs[i] = sc
		scs[i].Seed = int64(i)
	}
	start := time.Now()
	results, err := allforone.Sweep(scs, 0)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)

	var rounds, msgs, simulated float64
	for _, r := range results {
		rounds += float64(r.MaxDecisionRound())
		msgs += float64(r.Metrics.MsgsSent)
		simulated += float64(r.VirtualTime)
	}
	n := float64(len(results))
	fmt.Printf("\nswept %d seeds in %v of wall clock\n", len(results), wall.Round(time.Millisecond))
	fmt.Printf("mean rounds: %.2f   mean messages: %.1f\n", rounds/n, msgs/n)
	fmt.Printf("simulated %v of network time in %v of real time\n",
		time.Duration(simulated).Round(time.Millisecond), wall.Round(time.Millisecond))
}
