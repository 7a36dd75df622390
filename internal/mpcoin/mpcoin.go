// Package mpcoin implements the pure message-passing common-coin binary
// consensus algorithm that Algorithm 3 of the paper extends: the
// crash-failure adaptation (after Raynal 2018) of the Byzantine consensus
// protocol of Friedman, Mostéfaoui & Raynal (IEEE TDSC 2005).
//
// Rounds have a single phase: broadcast the estimate, collect reports from
// a majority of processes, then consult the common coin. If a value v is
// reported by more than n/2 processes the process adopts it and decides
// when the round's coin bit equals v; otherwise it adopts the coin bit.
// Like every pure message-passing consensus, it requires a majority of
// correct processes.
package mpcoin

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"allforone/internal/coin"
	"allforone/internal/driver"
	"allforone/internal/failures"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/sim"
)

// Config describes one execution.
type Config struct {
	// N is the number of processes (required).
	N int
	// Proposals holds each process's binary proposal (required, length N).
	Proposals []model.Value
	// Seed makes all randomness reproducible.
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
	// CommonCoinOverride, when non-nil, replaces the seeded common coin.
	CommonCoinOverride coin.Common
}

// Errors returned by Run.
var (
	ErrBadConfig = errors.New("mpcoin: invalid configuration")
)

type estMsg struct {
	round int
	est   model.Value
}

type decideMsg struct {
	val model.Value
}

type proc struct {
	id        model.ProcID
	n         int
	net       *netsim.Network
	common    coin.Common
	sched     *failures.Schedule
	ctr       *metrics.Counters
	h         *driver.Handle // the engine's abort/kill state
	rng       *rand.Rand
	maxRounds int
	pending   map[int][]model.Value // round -> buffered estimates
}

// killedNow reports whether a timed crash has struck this process; it
// halts at the next step point that observes it.
func (p *proc) killedNow() bool { return p.h.Killed() }

type outcome struct {
	status sim.Status
	val    model.Value
	round  int
}

func (p *proc) checkAbort(r int) *outcome {
	if p.killedNow() {
		return &outcome{status: sim.StatusCrashed, round: r}
	}
	if p.h.Aborted() || (p.maxRounds > 0 && r > p.maxRounds) {
		return &outcome{status: sim.StatusBlocked, round: r - 1}
	}
	return nil
}

// exchange broadcasts (r, est) and collects estimates from a majority.
func (p *proc) exchange(r int, est model.Value) (map[model.Value]int, *outcome) {
	if p.sched.ShouldCrash(p.id, failures.Point{Round: r, Phase: 1, Stage: failures.StageMidBroadcast}) {
		plan, _ := p.sched.Plan(p.id)
		recipients := plan.DeliverTo
		if recipients == nil {
			recipients = failures.RandomSubset(p.rng, p.n)
		}
		p.net.BroadcastSubset(p.id, estMsg{round: r, est: est}, recipients)
		return nil, &outcome{status: sim.StatusCrashed, round: r}
	}
	p.net.Broadcast(p.id, estMsg{round: r, est: est})

	counts := make(map[model.Value]int, 2)
	total := 0
	for _, v := range p.pending[r] {
		counts[v]++
		total++
	}
	delete(p.pending, r)

	for 2*total <= p.n {
		msg, ok := p.net.Receive(p.id)
		if p.killedNow() {
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
		case estMsg:
			switch {
			case payload.round == r:
				counts[payload.est]++
				total++
			case payload.round > r:
				p.pending[payload.round] = append(p.pending[payload.round], payload.est)
			}
		}
	}
	return counts, nil
}

func (p *proc) run(proposal model.Value) outcome {
	est := proposal
	for r := 1; ; r++ {
		if out := p.checkAbort(r); out != nil {
			return *out
		}
		if p.sched.ShouldCrash(p.id, failures.Point{Round: r, Phase: 1, Stage: failures.StageRoundStart}) {
			return outcome{status: sim.StatusCrashed, round: r}
		}
		counts, interrupted := p.exchange(r, est)
		if interrupted != nil {
			return *interrupted
		}
		if p.sched.ShouldCrash(p.id, failures.Point{Round: r, Phase: 1, Stage: failures.StageAfterExchange}) {
			return outcome{status: sim.StatusCrashed, round: r}
		}

		s := p.common.Bit(r)
		p.ctr.ObserveRound(int64(r))
		major := model.Bot
		for _, v := range []model.Value{model.Zero, model.One} {
			if 2*counts[v] > p.n {
				major = v
				break
			}
		}
		if major != model.Bot {
			est = major
			if s == major {
				if p.sched.ShouldCrash(p.id, failures.Point{Round: r, Phase: 1, Stage: failures.StageBeforeDecide}) {
					plan, _ := p.sched.Plan(p.id)
					if len(plan.DeliverTo) > 0 {
						p.ctr.AddDecideMsgs(int64(len(plan.DeliverTo)))
						p.net.BroadcastSubset(p.id, decideMsg{val: major}, plan.DeliverTo)
					}
					return outcome{status: sim.StatusCrashed, round: r}
				}
				p.ctr.AddDecideMsgs(int64(p.n))
				p.net.Broadcast(p.id, decideMsg{val: major})
				return outcome{status: sim.StatusDecided, val: major, round: r}
			}
		} else {
			est = s
		}
	}
}

// newProc builds process i's runtime state.
func newProc(cfg *Config, i int, nw *netsim.Network, commonCoin coin.Common, ctr *metrics.Counters) *proc {
	id := model.ProcID(i)
	s1, s2 := coin.DeriveLocalSeed(cfg.Seed^0x5851_f42d_4c95_7f2d, id)
	return &proc{
		id:        id,
		n:         cfg.N,
		net:       nw,
		common:    commonCoin,
		sched:     cfg.Crashes,
		ctr:       ctr,
		rng:       rand.New(rand.NewPCG(s1, s2)),
		maxRounds: cfg.MaxRounds,
		pending:   make(map[int][]model.Value),
	}
}

// assemble builds the Result from the collected outcomes.
func assemble(cfg *Config, outcomes []outcome, ctr *metrics.Counters, elapsed time.Duration) *sim.Result {
	res := &sim.Result{
		Procs:   make([]sim.ProcResult, cfg.N),
		Metrics: ctr.Read(),
		Elapsed: elapsed,
	}
	for i, o := range outcomes {
		res.Procs[i] = sim.ProcResult{Status: o.status, Decision: o.val, Round: o.round}
	}
	return res
}

// Run executes one consensus instance and returns per-process outcomes.
func Run(cfg Config) (*sim.Result, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("%w: need at least one process", ErrBadConfig)
	}
	if len(cfg.Proposals) != cfg.N {
		return nil, fmt.Errorf("%w: %d proposals for %d processes", ErrBadConfig, len(cfg.Proposals), cfg.N)
	}
	for i, v := range cfg.Proposals {
		if !v.IsBinary() {
			return nil, fmt.Errorf("%w: proposal of %v is %v", ErrBadConfig, model.ProcID(i), v)
		}
	}
	var commonCoin coin.Common = coin.NewSplitMixCommon(uint64(cfg.Seed) ^ 0x1656_67c5_27d4_eb2f)
	if cfg.CommonCoinOverride != nil {
		commonCoin = cfg.CommonCoinOverride
	}
	var ctr metrics.Counters
	var nw *netsim.Network
	outcomes := make([]outcome, cfg.N)
	out, err := driver.Run(driver.Config{
		MaxVirtualTime: cfg.MaxVirtualTime,
		MaxSteps:       cfg.MaxSteps,
		Crashes:        cfg.Crashes,
	}, cfg.N, driver.StandardNet(&nw, cfg.N, uint64(cfg.Seed)^0x27d4_eb2f_1656_67c5, &ctr, cfg.MinDelay, cfg.MaxDelay, cfg.NetOptions...),
		func(i int, h *driver.Handle) {
			p := newProc(&cfg, i, nw, commonCoin, &ctr)
			p.h = h
			outcomes[i] = p.run(cfg.Proposals[i])
		})
	if err != nil {
		return nil, err
	}
	res := assemble(&cfg, outcomes, &ctr, out.Elapsed)
	out.Fill(res)
	return res, nil
}
