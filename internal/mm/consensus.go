package mm

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
)

// Config describes one m&m consensus execution.
//
// The algorithm is the structural m&m analog of the paper's Algorithm 2,
// faithful to the cost model of §III-C (not a re-implementation of
// Aguilera et al.'s specific protocols): at each phase, process p_i
// proposes its estimate to the consensus object of every memory it can
// access — its own centered memory and each neighbor's, α_i + 1 objects —
// and adopts the value decided by its own centered object. The message
// exchange then counts supporters per process: because memory domains
// overlap, the cluster-closure ("one for all") accounting of the hybrid
// model is unsound here, exactly as the paper observes.
type Config struct {
	// Graph induces the shared-memory domains (required).
	Graph *Graph
	// Proposals holds each process's binary proposal (required, length n).
	Proposals []model.Value
	// Seed makes all randomness reproducible: it pins the entire
	// execution.
	Seed int64
	// Crashes is the failure pattern; nil means crash-free.
	Crashes *failures.Schedule
	// MaxRounds bounds execution; 0 = unbounded.
	MaxRounds int
	// MaxVirtualTime bounds the virtual clock of a run; zero means
	// unbounded (quiescence and MaxSteps still apply).
	MaxVirtualTime time.Duration
	// MaxSteps bounds the number of discrete events of a run; zero means
	// sim.DefaultMaxSteps, negative means unbounded.
	MaxSteps int64
	// MinDelay/MaxDelay bound uniform random message transit time.
	MinDelay, MaxDelay time.Duration
	// NetOptions appends extra network options (e.g. a compiled
	// NetworkProfile delay policy); a delay policy here replaces
	// MinDelay/MaxDelay.
	NetOptions []netsim.Option
	// LocalCoinOverride, when non-nil, supplies each process's coin.
	LocalCoinOverride func(p model.ProcID) coin.Local
}

// Errors returned by Run.
var (
	ErrBadConfig       = errors.New("mm: invalid configuration")
	ErrInvariantBroken = errors.New("mm: protocol invariant broken")
)

type phaseMsg struct {
	round int
	phase int
	est   model.Value
}

type decideMsg struct {
	val model.Value
}

type phaseKey struct{ round, phase int }

func (k phaseKey) less(o phaseKey) bool {
	if k.round != o.round {
		return k.round < o.round
	}
	return k.phase < o.phase
}

type proc struct {
	id        model.ProcID
	n         int
	graph     *Graph
	net       *netsim.Network
	arrays    []*consensusobj.Array // indexed by center process; p uses own + neighbors'
	local     coin.Local
	sched     *failures.Schedule
	ctr       *metrics.Counters
	h         *driver.Handle // the engine's abort/kill state
	rng       *rand.Rand
	maxRounds int
	pending   map[phaseKey][]model.Value
}

type outcome struct {
	status sim.Status
	val    model.Value
	round  int
	err    error
}

func (p *proc) checkAbort(r int) *outcome {
	if p.h.Killed() {
		return &outcome{status: sim.StatusCrashed, round: r}
	}
	if p.h.Aborted() || (p.maxRounds > 0 && r > p.maxRounds) {
		return &outcome{status: sim.StatusBlocked, round: r - 1}
	}
	return nil
}

// memoryPropose performs the m&m shared-memory step of one phase: propose
// est to the consensus object of every accessible memory (own centered
// memory plus each neighbor's — α_i + 1 invocations) and adopt the value
// decided by the own-centered object.
func (p *proc) memoryPropose(r, ph int, est model.Value) model.Value {
	own := p.arrays[p.id].Propose(r, ph, est)
	p.ctr.AddConsInvocations(1)
	for _, q := range p.graph.Neighbors(p.id) {
		p.arrays[q].Propose(r, ph, est)
		p.ctr.AddConsInvocations(1)
	}
	return own
}

// exchange broadcasts (r, ph, est) and counts per-process supporters until
// a majority of processes reported (no cluster closure in the m&m model).
func (p *proc) exchange(r, ph int, est model.Value) (map[model.Value]int, *outcome) {
	cur := phaseKey{round: r, phase: ph}
	if p.sched.ShouldCrash(p.id, failures.Point{Round: r, Phase: ph, Stage: failures.StageMidBroadcast}) {
		plan, _ := p.sched.Plan(p.id)
		recipients := plan.DeliverTo
		if recipients == nil {
			recipients = failures.RandomSubset(p.rng, p.n)
		}
		p.net.BroadcastSubset(p.id, phaseMsg{round: r, phase: ph, est: est}, recipients)
		return nil, &outcome{status: sim.StatusCrashed, round: r}
	}
	p.net.Broadcast(p.id, phaseMsg{round: r, phase: ph, est: est})

	counts := make(map[model.Value]int, 3)
	total := 0
	for _, v := range p.pending[cur] {
		counts[v]++
		total++
	}
	delete(p.pending, cur)

	for 2*total <= p.n {
		msg, ok := p.net.Receive(p.id)
		if p.h.Killed() {
			// A timed crash struck while waiting: halt before acting on
			// whatever was (or was not) received.
			return nil, &outcome{status: sim.StatusCrashed, round: r}
		}
		if !ok {
			return nil, &outcome{status: sim.StatusBlocked, round: r}
		}
		switch payload := msg.Payload.(type) {
		case decideMsg:
			p.ctr.AddDecideMsgs(int64(p.n))
			p.net.Broadcast(p.id, payload)
			return nil, &outcome{status: sim.StatusDecided, val: payload.val, round: r}
		case phaseMsg:
			k := phaseKey{round: payload.round, phase: payload.phase}
			switch {
			case k == cur:
				counts[payload.est]++
				total++
			case cur.less(k):
				p.pending[k] = append(p.pending[k], payload.est)
			}
		}
	}
	return counts, nil
}

func (p *proc) decideNow(r, ph int, v model.Value) outcome {
	if p.sched.ShouldCrash(p.id, failures.Point{Round: r, Phase: ph, Stage: failures.StageBeforeDecide}) {
		plan, _ := p.sched.Plan(p.id)
		if len(plan.DeliverTo) > 0 {
			p.ctr.AddDecideMsgs(int64(len(plan.DeliverTo)))
			p.net.BroadcastSubset(p.id, decideMsg{val: v}, plan.DeliverTo)
		}
		return outcome{status: sim.StatusCrashed, round: r}
	}
	p.ctr.AddDecideMsgs(int64(p.n))
	p.net.Broadcast(p.id, decideMsg{val: v})
	return outcome{status: sim.StatusDecided, val: v, round: r}
}

func (p *proc) run(proposal model.Value) outcome {
	est1 := proposal
	for r := 1; ; r++ {
		if out := p.checkAbort(r); out != nil {
			return *out
		}
		if p.sched.ShouldCrash(p.id, failures.Point{Round: r, Phase: 1, Stage: failures.StageRoundStart}) {
			return outcome{status: sim.StatusCrashed, round: r}
		}

		// Phase 1.
		est1 = p.memoryPropose(r, 1, est1)
		if p.sched.ShouldCrash(p.id, failures.Point{Round: r, Phase: 1, Stage: failures.StageAfterClusterConsensus}) {
			return outcome{status: sim.StatusCrashed, round: r}
		}
		c1, interrupted := p.exchange(r, 1, est1)
		if interrupted != nil {
			return *interrupted
		}
		est2 := model.Bot
		for _, v := range []model.Value{model.Zero, model.One} {
			if 2*c1[v] > p.n {
				est2 = v
				break
			}
		}

		// Phase 2.
		est2 = p.memoryPropose(r, 2, est2)
		c2, interrupted := p.exchange(r, 2, est2)
		if interrupted != nil {
			return *interrupted
		}
		p.ctr.ObserveRound(int64(r))

		var rec []model.Value
		for _, v := range []model.Value{model.Zero, model.One, model.Bot} {
			if c2[v] > 0 {
				rec = append(rec, v)
			}
		}
		switch {
		case len(rec) == 1 && rec[0].IsBinary():
			return p.decideNow(r, 2, rec[0])
		case len(rec) == 2 && rec[1] == model.Bot:
			est1 = rec[0]
		case len(rec) == 1 && rec[0] == model.Bot:
			est1 = p.local.Flip()
			p.ctr.AddCoinFlips(1)
		default:
			return outcome{
				status: sim.StatusFailed,
				round:  r,
				err:    fmt.Errorf("mm: weak agreement violated at %v round %d: rec = %v", p.id, r, rec),
			}
		}
	}
}

// Run executes one m&m consensus instance and returns per-process outcomes.
// Result.ConsInvocations/ConsAllocations are indexed by center process.
func Run(cfg Config) (*sim.Result, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadConfig)
	}
	n := cfg.Graph.N()
	if len(cfg.Proposals) != n {
		return nil, fmt.Errorf("%w: %d proposals for %d processes", ErrBadConfig, len(cfg.Proposals), n)
	}
	for i, v := range cfg.Proposals {
		if !v.IsBinary() {
			return nil, fmt.Errorf("%w: proposal of %v is %v", ErrBadConfig, model.ProcID(i), v)
		}
	}

	var ctr metrics.Counters
	var nw *netsim.Network
	arrays := make([]*consensusobj.Array, n)
	for i := range arrays {
		arrays[i] = consensusobj.NewArray()
	}
	outcomes := make([]outcome, n)
	out, err := driver.Run(driver.Config{
		MaxVirtualTime: cfg.MaxVirtualTime,
		MaxSteps:       cfg.MaxSteps,
		Crashes:        cfg.Crashes,
	}, n, driver.StandardNet(&nw, n, uint64(cfg.Seed)^0xc2b2_ae3d_27d4_eb4f, &ctr, cfg.MinDelay, cfg.MaxDelay, cfg.NetOptions...),
		func(i int, h *driver.Handle) {
			id := model.ProcID(i)
			var localCoin coin.Local
			if cfg.LocalCoinOverride != nil {
				localCoin = cfg.LocalCoinOverride(id)
			} else {
				localCoin = coin.NewPRNGLocal(coin.DeriveLocalSeed(cfg.Seed, id))
			}
			s1, s2 := coin.DeriveLocalSeed(cfg.Seed^0x1216_d5d9_8979_fb1b, id)
			p := &proc{
				id:        id,
				n:         n,
				graph:     cfg.Graph,
				net:       nw,
				arrays:    arrays,
				local:     localCoin,
				sched:     cfg.Crashes,
				ctr:       &ctr,
				h:         h,
				rng:       rand.New(rand.NewPCG(s1, s2)),
				maxRounds: cfg.MaxRounds,
				pending:   make(map[phaseKey][]model.Value),
			}
			outcomes[i] = p.run(cfg.Proposals[i])
		})
	if err != nil {
		return nil, err
	}

	res := &sim.Result{
		Procs:           make([]sim.ProcResult, n),
		Metrics:         ctr.Read(),
		ConsInvocations: make([]int64, n),
		ConsAllocations: make([]int64, n),
	}
	out.Fill(res)
	for i, o := range outcomes {
		if o.status == sim.StatusFailed {
			return nil, fmt.Errorf("%w: %v", ErrInvariantBroken, o.err)
		}
		res.Procs[i] = sim.ProcResult{Status: o.status, Decision: o.val, Round: o.round}
	}
	for i := range arrays {
		res.ConsInvocations[i] = arrays[i].Invocations()
		res.ConsAllocations[i] = arrays[i].Allocations()
	}
	return res, nil
}
