package core

import (
	"errors"
	"fmt"

	"allforone/internal/coin"
	"allforone/internal/consensusobj"
	"allforone/internal/driver"
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
	// Setup is the run's seed, crash pattern, bounds and delay policy.
	sim.Setup
	// MaxRounds bounds the rounds each process executes; 0 = unbounded.
	// Processes exceeding the bound end as StatusBlocked.
	MaxRounds int
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
	// of its whole cluster: each exchange's Quorum closes over
	// model.Singletons(n) rather than the Partition. The algorithm stays
	// safe but loses the one-for-all property: it degenerates to the
	// classical majority requirement.
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
// memories and CONS arrays, the common coin, and the slabs the processes
// are carved from — their states and their tallies.
type execEnv struct {
	n      int
	part   *model.Partition
	ctr    metrics.Counters
	nw     *netsim.Network
	arrays []consensusobj.Array
	common coin.Common
	procs  []proc
	sups   []model.Quorum
}

// newExecEnv wires the substrate; the network is built separately by the
// driver through newNetwork.
func newExecEnv(cfg *Config, n int) *execEnv {
	closure := cfg.Partition // what the exchanges' Quorums close over
	if cfg.AblateClosure {
		closure = model.Singletons(n)
	}
	env := &execEnv{
		n:      n,
		part:   cfg.Partition,
		arrays: consensusobj.NewArrays(cfg.Partition.M()), // the cluster memories MEM_x
		procs:  make([]proc, n),
		sups:   model.NewQuorums(closure, n),
	}
	env.common = cfg.CommonCoinOverride
	if env.common == nil {
		env.common = coin.NewSplitMixCommon(uint64(cfg.Seed) ^ 0x2545_f491_4f6c_dd1d)
	}
	return env
}

// newNetwork returns the driver's network constructor (the driver attaches
// its scheduler).
func (env *execEnv) newNetwork(cfg *Config) driver.NewNetFunc {
	return driver.StandardNet(&env.nw, env.n,
		uint64(cfg.Seed)^0xa076_1d64_78bd_642f, &env.ctr, 0, 0, cfg.NetOptions...)
}

// newProc builds process i's reactor in its slot of the slab.
func (env *execEnv) newProc(cfg *Config, i int, h *driver.Handle) *proc {
	id := model.ProcID(i)
	s1, s2 := coin.DeriveLocalSeed(cfg.Seed^0x6c62_272e_07bb_0142, id)
	p := &env.procs[i]
	*p = proc{
		id:            id,
		part:          env.part,
		net:           env.nw,
		cons:          &env.arrays[env.part.ClusterOf(id)],
		common:        env.common,
		sched:         cfg.Crashes,
		ctr:           &env.ctr,
		log:           cfg.Trace,
		h:             h,
		subset:        [2]uint64{s1, s2},
		alg:           cfg.Algorithm,
		maxRounds:     cfg.MaxRounds,
		sup:           &env.sups[i],
		ablateCluster: cfg.AblateClusterConsensus,
		est1:          cfg.Proposals[i],
	}
	if cfg.LocalCoinOverride != nil {
		p.local = cfg.LocalCoinOverride(id)
	} else {
		p.prng = coin.NewPRNGLocal(coin.DeriveLocalSeed(cfg.Seed, id))
		p.local = &p.prng
	}
	return p
}

// buildResult assembles the Result from the processes' outcomes.
func (env *execEnv) buildResult() (*Result, error) {
	m := env.part.M()
	cons := make([]int64, 2*m) // backs both per-cluster counts
	res := &Result{
		Procs:           make([]ProcResult, env.n),
		Metrics:         env.ctr.Read(),
		ConsInvocations: cons[:m:m],
		ConsAllocations: cons[m:],
	}
	for i := range env.procs {
		o := &env.procs[i].out
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
	res, err := env.buildResult()
	if err != nil {
		return nil, err
	}
	res.Engine = out
	return res, nil
}
