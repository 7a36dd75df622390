package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"allforone/internal/coin"
	"allforone/internal/consensusobj"
	"allforone/internal/driver"
	"allforone/internal/failures"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/sim"
	"allforone/internal/trace"
)

// Algorithm selects which of the paper's two consensus algorithms to run.
type Algorithm int

// The paper's two algorithms.
const (
	// LocalCoin is Algorithm 2: two-phase rounds, per-process local coins
	// (the hybrid-model extension of Ben-Or's algorithm).
	LocalCoin Algorithm = iota + 1
	// CommonCoin is Algorithm 3: single-phase rounds, a shared coin
	// (the hybrid-model extension of the FMR-style algorithm).
	CommonCoin
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case LocalCoin:
		return "local-coin"
	case CommonCoin:
		return "common-coin"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Phases returns the number of phases per round (2 for Algorithm 2, 1 for
// Algorithm 3) — needed by failure generators.
func (a Algorithm) Phases() int {
	if a == LocalCoin {
		return 2
	}
	return 1
}

// Config describes one consensus execution.
type Config struct {
	// Partition is the cluster decomposition (required).
	Partition *model.Partition
	// Proposals holds each process's proposed binary value (required,
	// length n).
	Proposals []model.Value
	// Algorithm selects local-coin (Algorithm 2) or common-coin
	// (Algorithm 3).
	Algorithm Algorithm
	// Seed makes all randomness of the run (coins, delays, crash subsets)
	// reproducible: it pins the entire execution.
	Seed int64
	// Crashes is the failure pattern; nil means crash-free.
	Crashes *failures.Schedule
	// MaxRounds bounds the rounds each process executes; 0 = unbounded.
	// Processes exceeding the bound end as StatusBlocked.
	MaxRounds int
	// MaxVirtualTime bounds the virtual clock of a run: once the next
	// event lies past the bound the run is aborted and undecided
	// processes end as StatusBlocked. Zero means unbounded (quiescence
	// detection and MaxSteps still bound stuck runs).
	MaxVirtualTime time.Duration
	// MaxSteps bounds the number of scheduler events of a run — the
	// deterministic guard against executions that never converge (e.g. a
	// rigged coin that never matches). Zero means DefaultMaxSteps;
	// negative means unbounded.
	MaxSteps int64
	// MinDelay/MaxDelay bound the uniform random message transit time.
	// A zero MaxDelay means immediate delivery (zero-delay messages are
	// delivered in deterministic send order).
	MinDelay, MaxDelay time.Duration
	// NetOptions appends extra network options — e.g. the delay policy a
	// Scenario's NetworkProfile compiles to. Applied after the uniform
	// delay band, so a delay policy here replaces MinDelay/MaxDelay.
	NetOptions []netsim.Option
	// Trace, when non-nil, records the event history of the run.
	Trace *trace.Log
	// CommonCoinOverride, when non-nil, replaces the seeded common coin
	// (used by tests to rig coin sequences).
	CommonCoinOverride coin.Common
	// LocalCoinOverride, when non-nil, supplies every process's local coin
	// (used by tests to rig coin sequences).
	LocalCoinOverride func(p model.ProcID) coin.Local

	// Ablations — NOT part of the paper's algorithms. They exist so the
	// ablation experiment can quantify what each design ingredient buys
	// (see harness experiment A1).
	//
	// AblateClosure counts only the actual sender in msg_exchange instead
	// of its whole cluster. The algorithm stays safe but loses the
	// one-for-all property: it degenerates to the classical majority
	// requirement.
	AblateClosure bool
	// AblateClusterConsensus skips the CONS_x[r,ph] agreement, letting
	// cluster members broadcast different values at the same position.
	// This breaks the premise of the closure accounting: runs may violate
	// cluster uniformity and abort with ErrInvariantBroken — which is the
	// point of the ablation.
	AblateClusterConsensus bool
}

// DefaultMaxSteps bounds virtual-engine runs that never converge: a run
// processing this many delivery events without terminating is aborted
// deterministically (undecided processes end as StatusBlocked).
const DefaultMaxSteps = sim.DefaultMaxSteps

// ProcResult and Result re-export the shared outcome vocabulary
// (see internal/sim).
type (
	ProcResult = sim.ProcResult
	Result     = sim.Result
)

// Errors returned by Run.
var (
	ErrBadConfig       = errors.New("core: invalid configuration")
	ErrInvariantBroken = errors.New("core: protocol invariant broken")
)

// validate checks the configuration and returns n.
func (cfg *Config) validate() (int, error) {
	if cfg.Partition == nil {
		return 0, fmt.Errorf("%w: nil partition", ErrBadConfig)
	}
	n := cfg.Partition.N()
	if len(cfg.Proposals) != n {
		return 0, fmt.Errorf("%w: %d proposals for %d processes", ErrBadConfig, len(cfg.Proposals), n)
	}
	for i, v := range cfg.Proposals {
		if !v.IsBinary() {
			return 0, fmt.Errorf("%w: proposal of %v is %v, want 0 or 1", ErrBadConfig, model.ProcID(i), v)
		}
	}
	if cfg.Algorithm != LocalCoin && cfg.Algorithm != CommonCoin {
		return 0, fmt.Errorf("%w: unknown algorithm %d", ErrBadConfig, int(cfg.Algorithm))
	}
	if cfg.MaxRounds < 0 {
		return 0, fmt.Errorf("%w: negative MaxRounds", ErrBadConfig)
	}
	return n, nil
}

// execEnv is the substrate of one execution: the network, the per-cluster
// memories and CONS arrays, the common coin, and the outcome slots.
type execEnv struct {
	n        int
	part     *model.Partition
	ctr      metrics.Counters
	nw       *netsim.Network
	arrays   []*consensusobj.Array
	common   coin.Common
	outcomes []outcome
}

// newExecEnv wires the substrate; the network is built separately by the
// driver through newNetwork.
func newExecEnv(cfg *Config, n int) *execEnv {
	env := &execEnv{
		n:        n,
		part:     cfg.Partition,
		outcomes: make([]outcome, n),
	}

	// One CONS array per cluster: the cluster memory MEM_x.
	env.arrays = make([]*consensusobj.Array, env.part.M())
	for x := range env.arrays {
		env.arrays[x] = consensusobj.NewArray()
	}

	env.common = coin.NewSplitMixCommon(uint64(cfg.Seed) ^ 0x2545_f491_4f6c_dd1d)
	if cfg.CommonCoinOverride != nil {
		env.common = cfg.CommonCoinOverride
	}
	return env
}

// newNetwork returns the driver's network constructor (the driver attaches
// its scheduler).
func (env *execEnv) newNetwork(cfg *Config) driver.NewNetFunc {
	return driver.StandardNet(&env.nw, env.n,
		uint64(cfg.Seed)^0xa076_1d64_78bd_642f, &env.ctr, cfg.MinDelay, cfg.MaxDelay, cfg.NetOptions...)
}

// newProc builds process i's reactor.
func (env *execEnv) newProc(cfg *Config, i int, h *driver.Handle) *proc {
	id := model.ProcID(i)
	var localCoin coin.Local
	if cfg.LocalCoinOverride != nil {
		localCoin = cfg.LocalCoinOverride(id)
	} else {
		localCoin = coin.NewPRNGLocal(coin.DeriveLocalSeed(cfg.Seed, id))
	}
	s1, s2 := coin.DeriveLocalSeed(cfg.Seed^0x6c62_272e_07bb_0142, id)
	return &proc{
		id:            id,
		part:          env.part,
		net:           env.nw,
		cons:          env.arrays[env.part.ClusterOf(id)],
		local:         localCoin,
		common:        env.common,
		sched:         cfg.Crashes,
		ctr:           &env.ctr,
		log:           cfg.Trace,
		h:             h,
		rng:           rand.New(rand.NewPCG(s1, s2)),
		store:         &env.outcomes[i],
		alg:           cfg.Algorithm,
		maxRounds:     cfg.MaxRounds,
		pending:       make(map[phaseKey][]bufferedMsg),
		sup:           newSupporters(env.n),
		ablateClosure: cfg.AblateClosure,
		ablateCluster: cfg.AblateClusterConsensus,
		est1:          cfg.Proposals[i],
	}
}

// buildResult assembles the Result from the collected outcomes.
func (env *execEnv) buildResult(elapsed time.Duration) (*Result, error) {
	res := &Result{
		Procs:           make([]ProcResult, env.n),
		Metrics:         env.ctr.Read(),
		ConsInvocations: make([]int64, env.part.M()),
		ConsAllocations: make([]int64, env.part.M()),
		Elapsed:         elapsed,
	}
	for i, o := range env.outcomes {
		if o.status == StatusFailed {
			return nil, fmt.Errorf("%w: %v", ErrInvariantBroken, o.err)
		}
		res.Procs[i] = ProcResult{Status: o.status, Decision: o.val, Round: o.round}
	}
	for x := range env.arrays {
		res.ConsInvocations[x] = env.arrays[x].Invocations()
		res.ConsAllocations[x] = env.arrays[x].Allocations()
	}
	return res, nil
}

// Run executes one consensus instance and returns the collected outcomes.
// The run is a deterministic discrete-event simulation: identical Configs
// yield identical Results and traces. The engine dispatch itself lives in
// internal/driver, shared with every other protocol runner in the
// repository.
//
// Run returns an error for invalid configurations and for protocol
// invariant violations (which indicate a bug, never a legal execution).
func Run(cfg Config) (*Result, error) {
	n, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	env := newExecEnv(&cfg, n)
	out, err := driver.RunHandlers(driver.Config{
		MaxVirtualTime: cfg.MaxVirtualTime,
		MaxSteps:       cfg.MaxSteps,
		Crashes:        cfg.Crashes,
	}, n, env.newNetwork(&cfg), func(i int, h *driver.Handle) driver.Reactor {
		return env.newProc(&cfg, i, h)
	})
	if err != nil {
		return nil, err
	}
	res, err := env.buildResult(out.Elapsed)
	if err != nil {
		return nil, err
	}
	out.Fill(res)
	return res, nil
}
