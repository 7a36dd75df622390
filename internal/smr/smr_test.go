package smr

import (
	"errors"
	"fmt"
	"testing"

	"allforone/internal/consensusobj"
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
				Setup:     sim.Setup{Seed: 31},
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
		Setup:     sim.Setup{Seed: 17},
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
		Setup:     sim.Setup{Seed: 5, Crashes: sched},
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
		Setup:     sim.Setup{Seed: 9, Crashes: sched},
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
		Setup:     sim.Setup{Seed: 3},
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
		Setup:     sim.Setup{Seed: 77, Crashes: sched},
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

// TestConsPositionsDistinct: every (slot, instance, round) below the
// instance cap reaches its own CONS object, including two pairs that a flat
// key slot·10⁷ + inst·10⁴ + round merges: instance 1,000 of slot 0 and
// instance 0 of slot 1 at n = 251 (cap 4n = 1,004), and round 10,001 of
// instance 0 and round 1 of instance 1.
func TestConsPositionsDistinct(t *testing.T) {
	t.Parallel()
	const maxInst = 4 * 251
	for _, pair := range [][2][3]int{
		{{0, 1000, 1}, {1, 0, 1}},
		{{0, 0, 10_001}, {0, 1, 1}},
	} {
		cons := &consensusobj.NewArrays(1)[0]
		a, b := pair[0], pair[1]
		x, y := consPos(a[0], a[1], a[2], maxInst)
		cons.Propose(x, y, model.One)
		x, y = consPos(b[0], b[1], b[2], maxInst)
		if got := cons.Propose(x, y, model.Zero); got != model.Zero {
			t.Errorf("(slot, inst, round) %v and %v reach one CONS object", a, b)
		}
	}
}

// TestBinOfGrowsPastCarvedRoom: a row's instance decisions past its carved
// room start open (Bot) and keep what was recorded.
func TestBinOfGrowsPastCarvedRoom(t *testing.T) {
	t.Parallel()
	row := slotRow{bin: make([]model.Value, 0, 2)}
	*row.binOf(0) = model.One
	if v := *row.binOf(5); v != model.Bot {
		t.Fatalf("instance 5 reads %v before any decision, want Bot", v)
	}
	*row.binOf(5) = model.Zero
	for inst, want := range []model.Value{model.One, model.Bot, model.Bot, model.Bot, model.Bot, model.Zero} {
		if v := *row.binOf(inst); v != want {
			t.Errorf("instance %d reads %v, want %v", inst, v, want)
		}
	}
}
