package core

import (
	"cmp"
	"errors"
	"fmt"

	"allforone/internal/coin"
	"allforone/internal/consensusobj"
	"allforone/internal/driver"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/protocol"
	"allforone/internal/sim"
	"allforone/internal/trace"
	"allforone/internal/vclock"
)

// ProcResult and Result re-export the shared outcome vocabulary
// (see internal/sim).
type (
	ProcResult = sim.ProcResult
	Result     = sim.Result
)

// ErrInvariantBroken is the hybrid model's invariant error.
var ErrInvariantBroken = errors.New("core: protocol invariant broken")

// Memory is a shared-memory step before an exchange: it returns the estimate
// process p exchanges in phase ph of round r.
type Memory func(p model.ProcID, r, ph int, est model.Value) model.Value

// Variant is a protocol on the round machine. Hybrid is the paper's hybrid
// model, with the cluster consensus before each exchange. Every other is
// flat: each process is its own cluster, so the machine is Ben-Or's
// algorithm (Algorithm 2) or the message-passing common-coin algorithm
// (Algorithm 3), the baselines the paper extends (§III-B, §IV). A flat
// Variant carries only what sets its protocol apart from them. The coin
// overrides and the ablations are what no Scenario expresses.
type Variant struct {
	// Algorithm is the algorithm a Scenario naming none runs: AlgoLocalCoin
	// (Algorithm 2), or common-coin (Algorithm 3) for any other value.
	Algorithm string
	// Memory, when non-nil, runs before each exchange in place of the
	// cluster consensus. A round with a memory step crashes an
	// after-cluster-consensus plan right after phase 1's step, and has no
	// after-exchange point: such a plan strikes at the next point. A flat
	// round without one has no after-cluster-consensus point.
	Memory Memory
	// NetSalt, SubsetSalt and CoinSalt are xored into the Scenario's Seed
	// to seed the network, the random recipients of crash-cut broadcasts
	// and the common coin.
	NetSalt    uint64
	SubsetSalt int64
	CoinSalt   uint64
	// ErrInvariantBroken wraps the run's invariant errors.
	ErrInvariantBroken error

	// CommonCoinOverride, when non-nil, replaces the seeded common coin
	// (used by tests to rig coin sequences).
	CommonCoinOverride coin.Common
	// LocalCoinOverride, when non-nil, supplies every process's local coin
	// (used by tests to rig coin sequences).
	LocalCoinOverride func(p model.ProcID) coin.Local

	// Ablations of the hybrid model — NOT part of the paper's algorithms,
	// and ignored on a flat variant. They exist so the ablation experiment
	// can quantify what each design ingredient buys (see harness experiment
	// A1).
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

	cluster bool // the hybrid's CONS_x[r,ph] step; set only in Hybrid
}

// Hybrid is the paper's algorithms: the cluster consensus before each
// exchange, on the hybrid model's own seeds. A Scenario naming no
// algorithm runs the common-coin one (the paper's efficient one: expected
// two rounds).
var Hybrid = Variant{
	Algorithm:          AlgoCommonCoin,
	NetSalt:            0xa076_1d64_78bd_642f,
	SubsetSalt:         0x6c62_272e_07bb_0142,
	CoinSalt:           0x2545_f491_4f6c_dd1d,
	ErrInvariantBroken: ErrInvariantBroken,
	cluster:            true,
}

// stepPoint reports whether the exchange of phase ph has a checked
// after-cluster-consensus point after its step.
func (v *Variant) stepPoint(ph int) bool { return v.cluster || v.Memory != nil && ph == 1 }

// execEnv is one execution: its inputs, the network, the per-cluster
// memories and CONS arrays, the common coin, the slabs the processes are
// carved from — their states and, on the hybrid model, their Quorums — and
// the Result they write their outcomes into.
//
// An env outlives its run: the driver keeps it on the recycled scheduler
// (driver.Keep), and the next run there takes it back (takeEnv) with the
// storage it grew — the process slab with each process's held-vote buffer,
// the Quorum slab and the CONS arrays. Only the Result is the run's own.
type execEnv struct {
	part      *model.Partition
	proposals []model.Value
	setup     sim.Setup
	maxRounds int
	trace     *trace.Log
	v         Variant
	n         int
	ctr       metrics.Counters
	nw        *netsim.Network
	arrays    []consensusobj.Array // one per cluster on the hybrid model; none on a flat one
	common    coin.Common
	split     coin.SplitMixCommon // backs common unless Variant.CommonCoinOverride
	procs     []proc
	sups      []model.Quorum // carved from quorums on the hybrid model
	quorums   model.QuorumSlab
	res       *Result
}

// slabSlack bounds the storage an env keeps, as it bounds a
// model.QuorumSlab: a slab holding more than slabSlack times what a run needs
// is dropped when that run takes it, so the slabs of a dense run do not ride
// every small run after it.
const slabSlack = 4

// fits reports whether kept storage of capacity have may serve a run that
// needs need.
func fits(have, need int) bool { return have >= need && have <= slabSlack*need }

// takeEnv returns the env of a run of v on sc, compiled into setup: kept,
// the env the last run on the driver's scheduler released, or a new one when
// there is none. Either way it holds exactly what a new env would, on the
// storage earlier runs grew; the network is built separately by the driver
// through newNetwork.
func takeEnv(kept any, sc *protocol.Scenario, setup *sim.Setup, v *Variant) *execEnv {
	env, _ := kept.(*execEnv)
	if env == nil {
		env = new(execEnv)
	}
	n := len(sc.Workload.Binary)
	procs := env.procs[:0]
	if !fits(cap(procs), n) {
		procs = make([]proc, n)
	}
	*env = execEnv{
		part:      sc.Topology.Partition,
		proposals: sc.Workload.Binary,
		setup:     *setup,
		maxRounds: sc.Bounds.MaxRounds,
		trace:     sc.Trace,
		v:         *v,
		n:         n,
		arrays:    env.arrays[:0],
		procs:     procs[:n],
		quorums:   env.quorums,
		res:       &Result{Procs: make([]ProcResult, n)},
	}
	if v.cluster {
		closure := env.part // what the exchanges' Quorums close over
		if v.AblateClosure {
			closure = model.Singletons(n)
		}
		env.sups = env.quorums.Quorums(closure, n)
		// The cluster memories MEM_x, emptied when their last run released
		// them.
		if m := env.part.M(); fits(cap(env.arrays), m) {
			env.arrays = env.arrays[:m]
		} else {
			env.arrays = consensusobj.NewArrays(m)
		}
	}
	if cmp.Or(sc.Algorithm, v.Algorithm) != AlgoLocalCoin {
		env.common = v.CommonCoinOverride
		if env.common == nil {
			env.split = *coin.NewSplitMixCommon(uint64(setup.Seed) ^ v.CoinSalt)
			env.common = &env.split
		}
	}
	return env
}

// release clears env of its run once the run's Result is read, for the next
// run on the scheduler: nothing the run was given or made — its inputs,
// coins, network and Result — stays reachable from it, and it keeps its
// storage, emptied: no held vote, no CONS object.
func (env *execEnv) release() {
	for i := range env.procs {
		p := &env.procs[i]
		*p = proc{pending: p.pending[:0]}
	}
	for x := range env.arrays {
		env.arrays[x].Reset()
	}
	env.quorums.Release()
	*env = execEnv{arrays: env.arrays, procs: env.procs, quorums: env.quorums}
}

// newNetwork builds the run's network on the driver's scheduler.
func (env *execEnv) newNetwork(clock *vclock.Scheduler) (*netsim.Network, error) {
	return driver.StandardNet(&env.nw, env.n, uint64(env.setup.Seed)^env.v.NetSalt, &env.ctr, 0, 0, env.setup.NetOption)(clock)
}

// newProc builds process i's reactor in its slot of the slab, where it
// finds the empty held-vote buffer an earlier run grew, unless it holds over
// slabSlack exchanges' worth.
func (env *execEnv) newProc(i int, h *driver.Handle) driver.Reactor {
	id := model.ProcID(i)
	p := &env.procs[i]
	pending := p.pending
	if cap(pending) > slabSlack*env.n {
		pending = nil
	}
	*p = proc{env: env, id: id, h: h, est1: env.proposals[i], pending: pending}
	if env.sups != nil {
		p.sup = &env.sups[i]
	} else {
		p.cnt.n = int32(env.n)
		p.sup = &p.cnt
	}
	if env.v.LocalCoinOverride != nil {
		p.local = env.v.LocalCoinOverride(id)
	} else {
		p.prng = coin.NewPRNGLocal(coin.DeriveLocalSeed(env.setup.Seed, id))
		p.local = &p.prng
	}
	return p
}

// result completes the Result the processes wrote their outcomes into. An
// invariant violation fails the run, reported at the lowest-id process that
// broke it, whose tally still holds the offending rec set.
func (env *execEnv) result() (*Result, error) {
	for i, pr := range env.res.Procs {
		if pr.Status == StatusFailed {
			return nil, fmt.Errorf("%w: weak agreement violated at %v round %d: rec = %v",
				env.v.ErrInvariantBroken, model.ProcID(i), pr.Round, env.procs[i].sup.Received())
		}
	}
	env.res.Metrics = env.ctr.Read()
	if m := len(env.arrays); m > 0 {
		cons := make([]int64, 2*m) // backs both per-cluster counts
		env.res.ConsInvocations, env.res.ConsAllocations = cons[:m:m], cons[m:]
		for x := range env.arrays {
			env.res.ConsInvocations[x] = env.arrays[x].Invocations()
			env.res.ConsAllocations[x] = env.arrays[x].Allocations()
		}
	}
	return env.res, nil
}

// RunVariant executes one instance of the round machine v describes on sc
// and returns the collected outcomes. sc must be a Scenario protocol.Run has
// validated for a binary protocol — one proposal of 0 or 1 per process, a
// partition of them on the hybrid model, no negative bound, an algorithm
// the protocol lists — and RunVariant checks none of it again. It reads the
// partition (on the hybrid model only), the binary proposals, sc.Setup(),
// Bounds.MaxRounds, Trace and Algorithm, v.Algorithm when sc names none.
// The run is a deterministic discrete-event simulation: identical inputs
// yield identical Results and traces. The engine dispatch itself lives in
// internal/driver, shared with every other protocol runner in the
// repository.
//
// RunVariant returns an error for a network profile that does not compile
// and for protocol invariant violations (which indicate a bug, never a
// legal execution).
func RunVariant(sc protocol.Scenario, v Variant) (*Result, error) {
	setup, err := sc.Setup()
	if err != nil {
		return nil, err
	}
	var (
		env  *execEnv
		res  *Result
		rerr error
	)
	out, err := driver.RunHandlers(driver.Config{
		MaxVirtualTime: setup.MaxVirtualTime,
		MaxSteps:       setup.MaxSteps,
		Crashes:        setup.Crashes,
		Keep: driver.Keep{
			Load: func(kept any) { env = takeEnv(kept, &sc, &setup, &v) },
			Store: func() any {
				res, rerr = env.result()
				env.release()
				return env
			},
		},
	}, len(sc.Workload.Binary), func(clock *vclock.Scheduler) (*netsim.Network, error) { return env.newNetwork(clock) },
		func(i int, h *driver.Handle) driver.Reactor { return env.newProc(i, h) })
	if err != nil {
		return nil, err
	}
	if rerr != nil {
		return nil, rerr
	}
	res.Engine = out
	return res, nil
}
