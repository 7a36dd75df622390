// Datacenter: a realistic deployment of the hybrid communication model.
//
// Three sites host 4 + 3 + 3 = 10 replicas. Replicas within a site share
// memory (the site's cluster); sites communicate over a wide-area network
// with millisecond-scale delays. The replicas must agree on a binary
// choice — say, whether to commit a cross-site transaction.
//
// The example shows the model's selling points end to end:
//
//   - intra-site agreement is one shared-memory consensus operation per
//     replica per phase — no WAN round-trips wasted on local coordination;
//   - a whole site can burn down (here: every replica of site C plus one
//     of site A crash mid-protocol) and consensus still terminates,
//     because the surviving sites cover a majority of replicas;
//   - the decision is reached in a handful of WAN rounds even with
//     adversarially split initial votes.
//
// Run with: go run ./examples/datacenter
package main

import (
	"fmt"
	"log"
	"time"

	"allforone"
)

func main() {
	// Site A: replicas 1-4, site B: replicas 5-7, site C: replicas 8-10.
	part, err := allforone.ParsePartition("1-4/5-7/8-10")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("sites:", part)

	// Split vote: site A wants to commit (1), sites B and C to abort (0).
	proposals := []allforone.Value{
		allforone.One, allforone.One, allforone.One, allforone.One, // site A
		allforone.Zero, allforone.Zero, allforone.Zero, // site B
		allforone.Zero, allforone.Zero, allforone.Zero, // site C
	}

	// Disaster strikes mid-protocol: all of site C crashes during round 1,
	// plus one replica of site A. Sites A and B keep one survivor each, so
	// the liveness condition holds: |A| + |B| = 7 > 10/2.
	sched := allforone.NewSchedule(part.N())
	for _, p := range []allforone.ProcID{7, 8, 9} { // site C
		if err := sched.Set(p, allforone.Crash{
			At: allforone.CrashPoint{Round: 1, Phase: 1, Stage: allforone.StageMidBroadcast},
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := sched.Set(0, allforone.Crash{ // one replica of site A
		At: allforone.CrashPoint{Round: 1, Phase: 1, Stage: allforone.StageAfterExchange},
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("failure: site C wiped mid-broadcast, one site-A replica gone")
	fmt.Println("liveness condition holds:", part.LivenessHolds(sched.Crashed()))

	// The network is a first-class part of the scenario: replicas inside a
	// site exchange messages in tens of microseconds, while cross-site
	// traffic pays a millisecond-scale WAN base delay plus jitter.
	res, err := allforone.Run(allforone.Scenario{
		Protocol:  allforone.ProtocolHybrid,
		Topology:  allforone.Topology{Partition: part},
		Workload:  allforone.Workload{Binary: proposals},
		Algorithm: allforone.AlgoCommonCoin, // expected 2 WAN rounds after stabilizing
		Seed:      2024,
		Faults:    sched,
		Profile: allforone.ClusterWANProfile(
			50*time.Microsecond, // intra-site
			2*time.Millisecond,  // cross-site base
			time.Millisecond,    // cross-site jitter
		),
		Bounds: allforone.Bounds{MaxRounds: 1000},
	})
	if err != nil {
		log.Fatal(err)
	}

	if !res.AllLiveDecided() {
		log.Fatal("a surviving replica failed to decide")
	}
	val, count, ok := res.Decided()
	if !ok {
		log.Fatal("no replica decided")
	}
	verdict := "COMMIT"
	if val == "0" {
		verdict = "ABORT"
	}
	fmt.Printf("\ndecision: %s (value %v), reached by %d surviving replicas\n", verdict, val, count)
	// Elapsed is simulated WAN time: the run models milliseconds of transit
	// while completing in microseconds of real time, deterministically.
	fmt.Printf("rounds: %d   WAN messages: %d   shared-memory ops: %d   simulated time: %v\n",
		res.MaxDecisionRound(), res.Metrics.MsgsSent, res.Metrics.ConsInvocations,
		res.Elapsed.Round(time.Millisecond))

	for i, pr := range res.Procs {
		site := "A"
		if i >= 7 {
			site = "C"
		} else if i >= 4 {
			site = "B"
		}
		fmt.Printf("  site %s replica p%-2d: %v", site, i+1, pr.Status)
		if pr.Status == allforone.StatusDecided {
			fmt.Printf(" %v at round %d", pr.Decision, pr.Round)
		}
		fmt.Println()
	}
}
