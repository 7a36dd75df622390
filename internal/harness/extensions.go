package harness

import (
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/multivalued"
	"allforone/internal/protocol"
	"allforone/internal/register"
	"allforone/internal/sim"
	"allforone/internal/smr"
	"allforone/internal/stats"
)

// E9ExtensionStack subjects every extension layer built on the hybrid
// model — multivalued consensus, the atomic register, and the replicated
// log — to the paper's flagship failure pattern (crash 6 of 7, keep one
// member of Fig1Right's majority cluster) and verifies each keeps
// operating, i.e. the one-for-all property composes upward. All three
// layers run through the protocol registry (protocol.Run): the scenarios
// differ only in Protocol, Workload, and fault flavor.
func E9ExtensionStack(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{
		ID:       "E9",
		Title:    "extension stack under the majority-crash pattern (6 of 7 down)",
		Findings: map[string]float64{},
	}
	tb := stats.NewTable("E9: "+rep.Title,
		"layer", "operation", "success%", "cost(mean)")
	part := model.Fig1Right()
	survivor := model.ProcID(2)
	crashAt := failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}

	// Layer 1: multivalued consensus.
	mvOK := 0
	var mvRounds []float64
	for trial := 0; trial < opts.Trials; trial++ {
		sched, err := failures.CrashAllExcept(part.N(), crashAt, survivor)
		if err != nil {
			return nil, err
		}
		props := []string{"a", "b", "c", "d", "e", "f", "g"}
		out, err := protocol.Run(protocol.Scenario{
			Protocol: multivalued.ProtocolName,
			Topology: protocol.Topology{Partition: part},
			Workload: protocol.Workload{Values: props},
			Seed:     opts.SeedBase + int64(trial)*379,
			Faults:   sched,
		})
		if err != nil {
			return nil, err
		}
		if err := out.CheckAgreement(); err != nil {
			return nil, err
		}
		if err := out.CheckValidity(props); err != nil {
			return nil, err
		}
		if pr := out.Procs[survivor]; pr.Status == sim.StatusDecided {
			mvOK++
			mvRounds = append(mvRounds, float64(pr.Round))
		}
	}
	mvPct := 100 * float64(mvOK) / float64(opts.Trials)
	tb.AddRowf("multivalued consensus", "decide(7 candidates)", mvPct, meanOr(mvRounds, 0))
	rep.Findings["multivalued/success_pct"] = mvPct

	// Layer 2: atomic register — survivor read/write after the crash. The
	// scenario expresses the pattern as timed crashes: process 1 (p2)
	// writes "pre" at t=0, everyone but the survivor (process 2, p3)
	// crashes at 1ms, and the survivor reads/writes/reads from 2ms on.
	regOK := 0
	for trial := 0; trial < opts.Trials; trial++ {
		sched := failures.NewSchedule(part.N())
		for p := 0; p < part.N(); p++ {
			if model.ProcID(p) != survivor {
				if err := sched.SetTimed(model.ProcID(p), time.Millisecond); err != nil {
					return nil, err
				}
			}
		}
		scripts := make([][]protocol.RegisterOp, part.N())
		scripts[1] = []protocol.RegisterOp{protocol.WriteOp("pre")}
		read := protocol.ReadOp()
		read.After = 2 * time.Millisecond
		scripts[survivor] = []protocol.RegisterOp{
			read,
			protocol.WriteOp("post"),
			protocol.ReadOp(),
		}
		out, err := protocol.Run(protocol.Scenario{
			Protocol: register.ProtocolName,
			Topology: protocol.Topology{Partition: part},
			Workload: protocol.Workload{Scripts: scripts},
			Seed:     opts.SeedBase + int64(trial)*631,
			Faults:   sched,
		})
		if err != nil {
			return nil, err
		}
		res := out.Raw.(*register.Result)
		surv := res.Procs[survivor]
		if surv.Status == sim.StatusDecided && len(surv.Ops) == 3 &&
			surv.Ops[0].Val == "pre" && surv.Ops[2].Val == "post" {
			regOK++
		}
	}
	regPct := 100 * float64(regOK) / float64(opts.Trials)
	tb.AddRowf("atomic register", "read+write after crash", regPct, 3.0)
	rep.Findings["register/success_pct"] = regPct

	// Layer 3: replicated log — survivor completes all slots alone.
	const slots = 3
	logOK := 0
	var logRounds []float64
	for trial := 0; trial < opts.Trials; trial++ {
		sched, err := failures.CrashAllExcept(part.N(), crashAt, survivor)
		if err != nil {
			return nil, err
		}
		cmds := make([][]string, part.N())
		for i := range cmds {
			cmds[i] = []string{"cmd-" + string(rune('a'+i))}
		}
		out, err := protocol.Run(protocol.Scenario{
			Protocol: smr.ProtocolName,
			Topology: protocol.Topology{Partition: part},
			Workload: protocol.Workload{Commands: cmds, Slots: slots},
			Seed:     opts.SeedBase + int64(trial)*881,
			Faults:   sched,
		})
		if err != nil {
			return nil, err
		}
		res := out.Raw.(*smr.Result)
		if err := res.CheckLogValidity(cmds); err != nil {
			return nil, err
		}
		surv := res.Replicas[survivor]
		if surv.Status == sim.StatusDecided && len(surv.Log) == slots {
			logOK++
			logRounds = append(logRounds, float64(surv.Rounds))
		}
	}
	logPct := 100 * float64(logOK) / float64(opts.Trials)
	tb.AddRowf("replicated log", "commit 3 slots after crash", logPct, meanOr(logRounds, 0))
	rep.Findings["log/success_pct"] = logPct

	tb.AddNote("%d trials per row; pattern: crash all but %v ∈ P[2]; cost = binary rounds (register: fixed 3 ops)", opts.Trials, survivor)
	rep.Table = tb
	return rep, nil
}
