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
//
// A process is an inline handler reactor (driver.RunHandlers, DESIGN.md
// §11) and has no coroutine form: the round's majority wait is the only
// wait point, so each invocation drains the inbox into the open round's
// tally and runs everything up to the next round's broadcast straight-line.
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

// proc is one process, a driver.Reactor. Its resumable state is the open
// round r, the estimate est it broadcast, and the round's tally. Every step
// happens in the algorithm's statement order, however invocations split the
// run, so the network's RNG stream and the (at,seq) order follow from it.
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
	store     *sim.ProcResult       // this process's slot of the Result

	r      int // open round; 0 before the first invocation
	est    model.Value
	counts [2]int // estimates of round r, indexed by value
	total  int
}

// finish records the outcome; React returns its result, retiring the
// process.
func (p *proc) finish(out sim.ProcResult) bool {
	*p.store = out
	return true
}

// stop ends the process where it waits: crashed if a timed crash struck it,
// blocked otherwise.
func (p *proc) stop() bool {
	if p.h.Killed() {
		return p.finish(sim.ProcResult{Status: sim.StatusCrashed, Round: p.r})
	}
	return p.finish(sim.ProcResult{Status: sim.StatusBlocked, Round: p.r})
}

// React runs one invocation: drain every deliverable message into the open
// round's tally and advance the round machine to its next wait point.
func (p *proc) React(aborted bool) bool {
	if p.r == 0 {
		if aborted {
			return true // the run ended before this process took a step
		}
		if p.nextRound() {
			return true
		}
	}
	if aborted {
		return p.stop() // queued messages stay unconsumed
	}
	for {
		if 2*p.total > p.n {
			if p.afterExchange() {
				return true
			}
			continue
		}
		msg, ok, closed := p.net.ReceiveNow(p.id)
		if p.h.Killed() || (!ok && closed) {
			// A timed crash halts the process before it acts on what it
			// received; a closed, drained inbox leaves it blocked.
			return p.stop()
		}
		if !ok {
			return false // inbox drained; wait for the next wake
		}
		switch payload := msg.Payload.(type) {
		case decideMsg:
			p.ctr.AddDecideMsgs(int64(p.n))
			p.net.Broadcast(p.id, payload)
			return p.finish(sim.ProcResult{Status: sim.StatusDecided, Decision: payload.val, Round: p.r})
		case estMsg:
			switch {
			case payload.round == p.r:
				p.counts[payload.est]++
				p.total++
			case payload.round > p.r:
				p.pending[payload.round] = append(p.pending[payload.round], payload.est)
			}
		}
	}
}

// nextRound opens round r+1: its abort and round-start checks, the
// broadcast of the estimate (cut short by a mid-broadcast crash), and the
// replay of the estimates that arrived early. It reports whether the
// process finished.
func (p *proc) nextRound() bool {
	p.r++
	switch {
	case p.h.Killed():
		return p.finish(sim.ProcResult{Status: sim.StatusCrashed, Round: p.r})
	case p.h.Aborted() || (p.maxRounds > 0 && p.r > p.maxRounds):
		return p.finish(sim.ProcResult{Status: sim.StatusBlocked, Round: p.r - 1})
	case p.sched.ShouldCrash(p.id, failures.Point{Round: p.r, Phase: 1, Stage: failures.StageRoundStart}):
		return p.finish(sim.ProcResult{Status: sim.StatusCrashed, Round: p.r})
	case p.sched.ShouldCrash(p.id, failures.Point{Round: p.r, Phase: 1, Stage: failures.StageMidBroadcast}):
		plan, _ := p.sched.Plan(p.id)
		recipients := plan.DeliverTo
		if recipients == nil {
			recipients = failures.RandomSubset(p.rng, p.n)
		}
		p.net.BroadcastSubset(p.id, estMsg{round: p.r, est: p.est}, recipients)
		return p.finish(sim.ProcResult{Status: sim.StatusCrashed, Round: p.r})
	}
	p.net.Broadcast(p.id, estMsg{round: p.r, est: p.est})
	p.counts, p.total = [2]int{}, 0
	for _, v := range p.pending[p.r] {
		p.counts[v]++
		p.total++
	}
	delete(p.pending, p.r)
	return false
}

// afterExchange runs the steps that follow a satisfied majority wait: the
// coin, then deciding or adopting and opening the next round. It reports
// whether the process finished.
func (p *proc) afterExchange() bool {
	if p.sched.ShouldCrash(p.id, failures.Point{Round: p.r, Phase: 1, Stage: failures.StageAfterExchange}) {
		return p.finish(sim.ProcResult{Status: sim.StatusCrashed, Round: p.r})
	}
	s := p.common.Bit(p.r)
	p.ctr.ObserveRound(int64(p.r))
	major := model.Bot
	for _, v := range [...]model.Value{model.Zero, model.One} {
		if 2*p.counts[v] > p.n {
			major = v
			break
		}
	}
	if major == model.Bot {
		p.est = s
		return p.nextRound()
	}
	p.est = major
	if s != major {
		return p.nextRound()
	}
	if p.sched.ShouldCrash(p.id, failures.Point{Round: p.r, Phase: 1, Stage: failures.StageBeforeDecide}) {
		plan, _ := p.sched.Plan(p.id)
		if len(plan.DeliverTo) > 0 {
			p.ctr.AddDecideMsgs(int64(len(plan.DeliverTo)))
			p.net.BroadcastSubset(p.id, decideMsg{val: major}, plan.DeliverTo)
		}
		return p.finish(sim.ProcResult{Status: sim.StatusCrashed, Round: p.r})
	}
	p.ctr.AddDecideMsgs(int64(p.n))
	p.net.Broadcast(p.id, decideMsg{val: major})
	return p.finish(sim.ProcResult{Status: sim.StatusDecided, Decision: major, Round: p.r})
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
		est:       cfg.Proposals[i],
	}
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
	res := &sim.Result{Procs: make([]sim.ProcResult, cfg.N)}
	out, err := driver.RunHandlers(driver.Config{
		MaxVirtualTime: cfg.MaxVirtualTime,
		MaxSteps:       cfg.MaxSteps,
		Crashes:        cfg.Crashes,
	}, cfg.N, driver.StandardNet(&nw, cfg.N, uint64(cfg.Seed)^0x27d4_eb2f_1656_67c5, &ctr, cfg.MinDelay, cfg.MaxDelay, cfg.NetOptions...),
		func(i int, h *driver.Handle) driver.Reactor {
			p := newProc(&cfg, i, nw, commonCoin, &ctr)
			p.h = h
			p.store = &res.Procs[i]
			return p
		})
	if err != nil {
		return nil, err
	}
	res.Metrics = ctr.Read()
	out.Fill(res)
	return res, nil
}
