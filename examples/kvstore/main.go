// Kvstore: a replicated key-value store on the hybrid communication model.
//
// Seven replicas across three clusters maintain a key-value map by
// replaying a shared command log. Slots of the log are agreed on with the
// hybrid multivalued machinery (the paper's Algorithm 3 under the classical
// multivalued reduction), so the store inherits the headline property:
// with a majority cluster holding one survivor, the log — and hence the
// store — keeps making progress through a majority crash.
//
// The example also exercises the companion primitive: an atomic
// multi-writer register over the same model (cluster-aware ABD), used here
// as a "current leader" pointer next to the log.
//
// Run with: go run ./examples/kvstore
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"allforone"
)

// apply replays a command log into a map. Commands are "set key=value".
func apply(cmds []string) map[string]string {
	state := make(map[string]string)
	for _, c := range cmds {
		if c == allforone.LogNoOp {
			continue
		}
		rest, ok := strings.CutPrefix(c, "set ")
		if !ok {
			continue
		}
		if k, v, ok := strings.Cut(rest, "="); ok {
			state[k] = v
		}
	}
	return state
}

func main() {
	part := allforone.Fig1Right() // {p1} {p2..p5} {p6,p7}
	fmt.Println("replicas:", part)

	// Each replica has a queue of writes its clients submitted.
	commands := [][]string{
		{"set color=red"},
		{"set size=XL", "set price=10"},
		{"set color=blue"},
		{"set stock=7"},
		{},
		{"set price=12"},
		{"set owner=p7"},
	}

	const slots = 6
	out, err := allforone.Run(allforone.Scenario{
		Protocol: allforone.ProtocolSMR,
		Topology: allforone.Topology{Partition: part},
		Workload: allforone.Workload{Commands: commands, Slots: slots},
		Seed:     2026,
	})
	if err != nil {
		log.Fatal(err) // log agreement is checked inside the smr adapter
	}
	res := out.Raw.(*allforone.LogResult)
	logs := res.CompletedLogs(slots)
	if len(logs) == 0 {
		log.Fatal("no replica completed the log")
	}
	fmt.Printf("\nagreed log (%d replicas, identical):\n", len(logs))
	for s, cmd := range logs[0] {
		display := cmd
		if cmd == allforone.LogNoOp {
			display = "(no-op)"
		}
		fmt.Printf("  slot %d: %s\n", s, display)
	}
	state := apply(logs[0])
	fmt.Println("\nmaterialized store:")
	for _, k := range []string{"color", "size", "price", "stock", "owner"} {
		if v, ok := state[k]; ok {
			fmt.Printf("  %s = %s\n", k, v)
		}
	}

	// Side channel: an atomic register (cluster-aware ABD) for the current
	// leader pointer — reads and writes survive the same failure patterns.
	// p2 writes the pointer; at 1ms everyone outside one member of the
	// majority cluster crashes; at 2ms the survivor p3 still reads the
	// pointer, then takes over.
	const survivor = allforone.ProcID(2)
	crashes := allforone.NewSchedule(part.N())
	for _, p := range []allforone.ProcID{0, 1, 3, 4, 5, 6} {
		if err := crashes.SetTimed(p, time.Millisecond); err != nil {
			log.Fatal(err)
		}
	}
	scripts := make([][]allforone.ScriptOp, part.N())
	scripts[1] = []allforone.ScriptOp{allforone.ScriptWrite("leader=p2")}
	scripts[survivor] = []allforone.ScriptOp{
		{After: 2 * time.Millisecond}, // a read, once the crashes have struck
		allforone.ScriptWrite("leader=p3"),
		allforone.ScriptRead(),
	}
	rout, err := allforone.Run(allforone.Scenario{
		Protocol: allforone.ProtocolRegister,
		Topology: allforone.Topology{Partition: part},
		Workload: allforone.Workload{Scripts: scripts},
		Faults:   crashes,
		Seed:     7,
	})
	if err != nil {
		log.Fatal(err)
	}
	ops := rout.Raw.(*allforone.RegisterRunResult).Procs[survivor].Ops
	if len(ops) != 3 || !ops[2].OK {
		log.Fatalf("survivor completed %d of 3 register operations", len(ops))
	}
	fmt.Printf("\nregister after crashing 6/7 replicas: survivor p3 reads %q\n", ops[0].Val)
	fmt.Printf("survivor takes over:                    %q\n", ops[2].Val)
}
