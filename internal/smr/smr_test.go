package smr

import (
	"errors"
	"fmt"
	"testing"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/sim"
)

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	if _, err := Run(Config{Commands: [][]string{{"a"}}, Slots: 1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil partition error = %v", err)
	}
	part := model.Singletons(3)
	if _, err := Run(Config{Partition: part, Commands: [][]string{{"a"}}, Slots: 1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("queue count error = %v", err)
	}
	if _, err := Run(Config{Partition: part, Commands: [][]string{{}, {}, {}}, Slots: 0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero slots error = %v", err)
	}
}

func queuesFor(n, perReplica int) [][]string {
	out := make([][]string, n)
	for i := range out {
		for k := 0; k < perReplica; k++ {
			out[i] = append(out[i], fmt.Sprintf("r%d/cmd%d", i, k))
		}
	}
	return out
}

func TestAllReplicasBuildIdenticalLogs(t *testing.T) {
	t.Parallel()
	partitions := map[string]*model.Partition{
		"fig1-left":    model.Fig1Left(),
		"fig1-right":   model.Fig1Right(),
		"singletons-4": model.Singletons(4),
	}
	for name, part := range partitions {
		name, part := name, part
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const slots = 5
			cmds := queuesFor(part.N(), 3)
			res, err := Run(Config{
				Partition: part,
				Commands:  cmds,
				Slots:     slots,
				Seed:      31,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := res.CheckLogAgreement(); err != nil {
				t.Fatal(err)
			}
			if err := res.CheckLogValidity(cmds); err != nil {
				t.Fatal(err)
			}
			logs := res.CompletedLogs(slots)
			if len(logs) != part.N() {
				t.Fatalf("completed logs = %d, want %d (statuses: %+v)",
					len(logs), part.N(), res.Replicas)
			}
			checkNoDuplicateCommits(t, logs[0])
		})
	}
}

// checkNoDuplicateCommits fails if a command appears twice in log: each
// proposer advances its queue only after its own command commits.
func checkNoDuplicateCommits(t *testing.T, log []string) {
	t.Helper()
	seen := map[string]int{}
	for s, v := range log {
		if v == NoOp {
			continue
		}
		if prev, dup := seen[v]; dup {
			t.Errorf("command %q committed at slots %d and %d", v, prev, s)
		}
		seen[v] = s
	}
}

// Every slot should usually commit a real command when queues are
// non-empty — no-ops only appear when a queue-empty replica wins.
func TestCommandsActuallyCommit(t *testing.T) {
	t.Parallel()
	part := model.Fig1Left()
	cmds := queuesFor(part.N(), 4)
	res, err := Run(Config{
		Partition: part,
		Commands:  cmds,
		Slots:     6,
		Seed:      17,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	logs := res.CompletedLogs(6)
	if len(logs) == 0 {
		t.Fatalf("no replica completed: %+v", res.Replicas)
	}
	nonNoop := 0
	for _, v := range logs[0] {
		if v != NoOp {
			nonNoop++
		}
	}
	if nonNoop == 0 {
		t.Error("every slot decided no-op although all queues were non-empty")
	}
	checkNoDuplicateCommits(t, logs[0])
}

// The log inherits the one-for-all property: a majority-cluster survivor
// keeps appending slots after 6 of 7 replicas crash.
func TestMajorityCrashSurvivorKeepsAppending(t *testing.T) {
	t.Parallel()
	part := model.Fig1Right()
	sched := failures.NewSchedule(7)
	for _, p := range []model.ProcID{0, 1, 3, 4, 5, 6} {
		if err := sched.Set(p, failures.Crash{
			At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart},
		}); err != nil {
			t.Fatal(err)
		}
	}
	const slots = 4
	cmds := queuesFor(7, slots)
	res, err := Run(Config{
		Partition: part,
		Commands:  cmds,
		Slots:     slots,
		Seed:      5,
		Crashes:   sched,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	surv := res.Replicas[2]
	if surv.Status != sim.StatusDecided || len(surv.Log) != slots {
		t.Fatalf("survivor = %+v, want decided with %d slots", surv, slots)
	}
	if err := res.CheckLogAgreement(); err != nil {
		t.Fatal(err)
	}
	if err := res.CheckLogValidity(cmds); err != nil {
		t.Fatal(err)
	}
}

// Without the liveness condition the log blocks — but logs never diverge.
func TestBlockedWhenLivenessFails(t *testing.T) {
	t.Parallel()
	part := model.Fig1Right()
	sched := failures.NewSchedule(7)
	for _, p := range []model.ProcID{1, 2, 3, 4} { // wipe the majority cluster
		if err := sched.Set(p, failures.Crash{
			At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart},
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(Config{
		Partition: part,
		Commands:  queuesFor(7, 2),
		Slots:     3,
		Seed:      9,
		Crashes:   sched,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.CheckLogAgreement(); err != nil {
		t.Fatal(err)
	}
	if logs := res.CompletedLogs(3); len(logs) != 0 {
		t.Errorf("completed logs despite dead pattern: %v", logs)
	}
}

func TestEmptyQueuesYieldNoOps(t *testing.T) {
	t.Parallel()
	part := model.Singletons(3)
	res, err := Run(Config{
		Partition: part,
		Commands:  [][]string{{}, {}, {}},
		Slots:     2,
		Seed:      3,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	logs := res.CompletedLogs(2)
	if len(logs) != 3 {
		t.Fatalf("completed = %d, want 3", len(logs))
	}
	for _, v := range logs[0] {
		if v != NoOp {
			t.Errorf("slot value %q, want no-op", v)
		}
	}
}

func TestMidRunCrashKeepsPrefixAgreement(t *testing.T) {
	t.Parallel()
	part := model.Fig1Left()
	sched := failures.NewSchedule(7)
	// p4 crashes somewhere in the middle of the run (global round 6).
	if err := sched.Set(3, failures.Crash{
		At: failures.Point{Round: 6, Phase: 1, Stage: failures.StageRoundStart},
	}); err != nil {
		t.Fatal(err)
	}
	cmds := queuesFor(7, 3)
	res, err := Run(Config{
		Partition: part,
		Commands:  cmds,
		Slots:     5,
		Seed:      77,
		Crashes:   sched,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.CheckLogAgreement(); err != nil {
		t.Fatal(err)
	}
	if err := res.CheckLogValidity(cmds); err != nil {
		t.Fatal(err)
	}
	// All live replicas complete (liveness holds: only one crash).
	for i, rep := range res.Replicas {
		if i == 3 {
			continue
		}
		if rep.Status != sim.StatusDecided || len(rep.Log) != 5 {
			t.Errorf("replica %d = %+v, want full log", i, rep)
		}
	}
}

func TestResultCheckers(t *testing.T) {
	t.Parallel()
	good := &Result{Replicas: []ReplicaResult{
		{Status: sim.StatusDecided, Log: []string{"a", "b"}},
		{Status: sim.StatusCrashed, Log: []string{"a"}},
	}}
	if err := good.CheckLogAgreement(); err != nil {
		t.Errorf("CheckLogAgreement: %v", err)
	}
	if err := good.CheckLogValidity([][]string{{"a"}, {"b"}}); err != nil {
		t.Errorf("CheckLogValidity: %v", err)
	}

	diverged := &Result{Replicas: []ReplicaResult{
		{Log: []string{"a", "b"}},
		{Log: []string{"a", "c"}},
	}}
	if err := diverged.CheckLogAgreement(); err == nil {
		t.Error("divergence not detected")
	}
	invalid := &Result{Replicas: []ReplicaResult{{Log: []string{"zzz"}}}}
	if err := invalid.CheckLogValidity([][]string{{"a"}}); err == nil {
		t.Error("invalid command not detected")
	}
	if got := good.CompletedLogs(2); len(got) != 1 {
		t.Errorf("CompletedLogs = %d, want 1", len(got))
	}
}
