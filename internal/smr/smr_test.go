package smr

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"allforone/internal/consensusobj"
	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// runSafe runs cfg and fails on a configuration error or unless every log
// is a prefix of one log made of submitted commands and no-ops.
func runSafe(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := errors.Join(res.CheckLogAgreement(), res.CheckLogValidity(cfg.Commands)); err != nil {
		t.Fatal(err)
	}
	return res
}

// crashAllExcept crashes every process of an n = 7 run but the survivors at
// the top of round 1.
func crashAllExcept(t *testing.T, survivors ...model.ProcID) *failures.Schedule {
	t.Helper()
	sched, err := failures.CrashAllExcept(7, failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}, survivors...)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

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
			res := runSafe(t, Config{Partition: part, Commands: queuesFor(part.N(), 3), Slots: slots, Setup: sim.Setup{Seed: 31}})
			logs := res.CompletedLogs(slots)
			if len(logs) != part.N() {
				t.Fatalf("completed logs = %d, want %d (statuses: %+v)", len(logs), part.N(), res.Replicas)
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
	res := runSafe(t, Config{Partition: model.Fig1Left(), Commands: queuesFor(7, 4), Slots: 6, Setup: sim.Setup{Seed: 17}})
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
	const slots = 4
	res := runSafe(t, Config{Partition: model.Fig1Right(), Commands: queuesFor(7, slots), Slots: slots, Setup: sim.Setup{Seed: 5, Crashes: crashAllExcept(t, 2)}})
	if surv := res.Replicas[2]; surv.Status != sim.StatusDecided || len(surv.Log) != slots {
		t.Fatalf("survivor = %+v, want decided with %d slots", surv, slots)
	}
}

// Without the liveness condition the log blocks — but logs never diverge.
func TestBlockedWhenLivenessFails(t *testing.T) {
	t.Parallel()
	// Wipe the majority cluster P[2] = {p2..p5}.
	res := runSafe(t, Config{Partition: model.Fig1Right(), Commands: queuesFor(7, 2), Slots: 3, Setup: sim.Setup{Seed: 9, Crashes: crashAllExcept(t, 0, 5, 6)}})
	if logs := res.CompletedLogs(3); len(logs) != 0 {
		t.Errorf("completed logs despite dead pattern: %v", logs)
	}
}

func TestEmptyQueuesYieldNoOps(t *testing.T) {
	t.Parallel()
	res := runSafe(t, Config{Partition: model.Singletons(3), Commands: [][]string{{}, {}, {}}, Slots: 2, Setup: sim.Setup{Seed: 3}})
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
	sched := failures.NewSchedule(7)
	// p4 crashes somewhere in the middle of the run (global round 6).
	if err := sched.Set(3, failures.Crash{At: failures.Point{Round: 6, Phase: 1, Stage: failures.StageRoundStart}}); err != nil {
		t.Fatal(err)
	}
	res := runSafe(t, Config{Partition: model.Fig1Left(), Commands: queuesFor(7, 3), Slots: 5, Setup: sim.Setup{Seed: 77, Crashes: sched}})
	// All live replicas complete (liveness holds: only one crash).
	for i, rep := range res.Replicas {
		if i != 3 && (rep.Status != sim.StatusDecided || len(rep.Log) != 5) {
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

// TestReplayBitReproducible pins replay of cells the registry suite's smr
// row lacks: a 3-slot log on Fig1Left under a 0–1 ms band, with a crash at
// the top of global round 3 beside a timed one, over three seeds.
func TestReplayBitReproducible(t *testing.T) {
	t.Parallel()
	config := func(seed int64) Config {
		sched := failures.NewSchedule(7)
		err := errors.Join(
			sched.Set(6, failures.Crash{At: failures.Point{Round: 3, Phase: 1, Stage: failures.StageRoundStart}}),
			sched.SetTimed(5, 5*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		cmds := make([][]string, 7)
		for i := range cmds {
			cmds[i] = []string{"cmd-" + string(rune('a'+i))}
		}
		return Config{
			Partition: model.Fig1Left(),
			Commands:  cmds,
			Slots:     3,
			Setup: sim.Setup{
				Seed:       seed,
				Crashes:    sched,
				NetOptions: []netsim.Option{netsim.WithUniformDelay(0, time.Millisecond)},
			},
		}
	}
	for _, seed := range []int64{1, 42, 917} {
		res1, res2 := runSafe(t, config(seed)), runSafe(t, config(seed))
		if !reflect.DeepEqual(res1, res2) || res1.Steps == 0 {
			t.Errorf("seed %d: Results diverged or took no step:\n  run1: %+v\n  run2: %+v", seed, res1, res2)
		}
	}
}

// TestSafetyAcrossSchedules samples the schedule space: 32 seeds, each at
// immediate delivery and under a 0–1 ms uniform band (replayable), every
// run held to protocol.Check: log agreement, validity and, crash-free, every
// replica completing the log.
func TestSafetyAcrossSchedules(t *testing.T) {
	t.Parallel()
	cmds := make([][]string, 7)
	for i := range cmds {
		cmds[i] = []string{"op-" + string(rune('a'+i))}
	}
	for _, band := range []protocol.NetworkProfile{nil, protocol.Uniform(0, time.Millisecond)} {
		for seed := int64(0); seed < 32; seed++ {
			sc := protocol.Scenario{
				Protocol: ProtocolName,
				Topology: protocol.Topology{Partition: model.Fig1Right()},
				Workload: protocol.Workload{Commands: cmds, Slots: 2},
				Profile:  band,
				Seed:     seed,
			}
			out, err := protocol.Run(sc)
			if err != nil {
				t.Fatalf("band %v seed %d: %v", band, seed, err)
			}
			if vs := protocol.Check(sc, out); vs != nil {
				t.Errorf("band %v seed %d: %v", band, seed, vs)
			}
		}
	}
}

// TestVirtualQuiescenceBlocks pins the deterministic blocked verdict: with
// the majority cluster wiped the log cannot advance, and the virtual
// engine must say so at quiescence, instantly.
func TestVirtualQuiescenceBlocks(t *testing.T) {
	t.Parallel()
	start := time.Now()
	res := runSafe(t, Config{Partition: model.Fig1Right(), Commands: make([][]string, 7), Slots: 1, Setup: sim.Setup{Seed: 3, Crashes: crashAllExcept(t, 0, 5, 6)}})
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("blocked verdict took %v of real time", wall)
	}
	if !res.Quiesced {
		t.Errorf("Quiesced = false, want true: %+v", res)
	}
	for i, rep := range res.Replicas {
		if rep.Status == sim.StatusDecided {
			t.Errorf("replica %d decided under a dead failure pattern: %+v", i, rep)
		}
	}
}
