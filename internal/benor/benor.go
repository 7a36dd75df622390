// Package benor implements Ben-Or's randomized binary consensus (PODC
// 1983) for the pure message-passing model — the baseline Algorithm 2
// extends, and exactly what Algorithm 2 "boils down to" when every cluster
// contains a single process (paper §III-B).
//
// Per the paper, the communication pattern simplifies: the supporters sets
// are replaced by a simple count of each value received during the phase.
// The algorithm requires a majority of correct processes; with n/2 or more
// crashes it blocks (but stays safe — it is indulgent).
package benor

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"allforone/internal/coin"
	"allforone/internal/driver"
	"allforone/internal/failures"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/sim"
)

// Config describes one Ben-Or execution.
type Config struct {
	// N is the number of processes (required).
	N int
	// Proposals holds each process's proposed binary value (required,
	// length N).
	Proposals []model.Value
	// Seed makes all randomness reproducible.
	Seed int64
	// Crashes is the failure pattern; nil means crash-free. Stage
	// StageAfterClusterConsensus has no counterpart here and triggers at
	// the next step point.
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

// ErrBadConfig reports an invalid configuration.
var ErrBadConfig = errors.New("benor: invalid configuration")

// phaseMsg is the (r, ph, est) triple.
type phaseMsg struct {
	round int
	phase int
	est   model.Value
}

// decideMsg is DECIDE(v).
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

// tally counts values received in one phase, one slot per sender to honor
// the no-duplication guarantee: counts[v+1] for v = ⊥, 0, 1.
type tally struct {
	counts [3]int
	total  int
}

func (t *tally) add(v model.Value) {
	t.counts[v+1]++
	t.total++
}

// majorityValue returns the binary value reported by more than n/2
// processes, if any.
func (t *tally) majorityValue(n int) (model.Value, bool) {
	for _, v := range [...]model.Value{model.Zero, model.One} {
		if 2*t.counts[v+1] > n {
			return v, true
		}
	}
	return model.Bot, false
}

// received returns the distinct values seen (the rec_i set) as rec[:k], in
// the order 0, 1, ⊥. A caller formatting rec[:k] passes a copy
// (slices.Clone), or rec moves to the heap on every call.
func (t *tally) received() (rec [3]model.Value, k int) {
	for _, v := range [...]model.Value{model.Zero, model.One, model.Bot} {
		if t.counts[v+1] > 0 {
			rec[k] = v
			k++
		}
	}
	return rec, k
}

// proc is one process, a driver.Reactor (DESIGN.md §11). The only wait point
// is the majority wait of an exchange, so its resumable state is the open
// exchange (r, ph), the round-carried estimate, and the exchange's tally;
// everything between two exchanges runs straight-line inside one
// invocation. Every step happens in the algorithm's statement order, however
// invocations split the run, so the network's RNG stream and the (at,seq)
// order follow from it.
type proc struct {
	id        model.ProcID
	n         int
	net       *netsim.Network
	local     coin.Local
	sched     *failures.Schedule
	ctr       *metrics.Counters
	h         *driver.Handle // the engine's abort/kill state
	rng       *rand.Rand
	maxRounds int
	memory    Memory // nil: Ben-Or's rounds have no memory step
	pending   map[phaseKey][]model.Value
	store     *outcome // this process's result slot

	r    int // open round; 0 before the first invocation
	ph   int // open exchange: phase 1 or 2
	est1 model.Value
	t    tally
}

type outcome struct {
	status sim.Status
	val    model.Value
	round  int
	err    error
}

// finish records the outcome; React returns its result, retiring the
// process.
func (p *proc) finish(out outcome) bool {
	*p.store = out
	return true
}

// crash finishes the process as crashed in the open round.
func (p *proc) crash() bool { return p.finish(outcome{status: sim.StatusCrashed, round: p.r}) }

// stop ends the process where it waits: crashed if a timed crash struck it,
// blocked otherwise.
func (p *proc) stop() bool {
	if p.h.Killed() {
		return p.crash()
	}
	return p.finish(outcome{status: sim.StatusBlocked, round: p.r})
}

// atCrashPoint reports whether the process must crash at the given step
// point of the open round.
func (p *proc) atCrashPoint(ph int, stage failures.Stage) bool {
	return p.sched.ShouldCrash(p.id, failures.Point{Round: p.r, Phase: ph, Stage: stage})
}

// React runs one invocation: drain every deliverable message into the open
// tally and advance the round machine to its next wait point.
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
		if 2*p.t.total > p.n {
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
			return p.finish(outcome{status: sim.StatusDecided, val: payload.val, round: p.r})
		case phaseMsg:
			k, cur := phaseKey{round: payload.round, phase: payload.phase}, phaseKey{round: p.r, phase: p.ph}
			switch {
			case k == cur:
				p.t.add(payload.est)
			case cur.less(k):
				p.pending[k] = append(p.pending[k], payload.est)
			}
		}
	}
}

// nextRound opens round r+1: its abort and round-start checks, then the
// phase-1 exchange. It reports whether the process finished.
func (p *proc) nextRound() bool {
	p.r++
	switch {
	case p.h.Killed():
		return p.crash()
	case p.h.Aborted() || (p.maxRounds > 0 && p.r > p.maxRounds):
		return p.finish(outcome{status: sim.StatusBlocked, round: p.r - 1})
	case p.atCrashPoint(1, failures.StageRoundStart):
		return p.crash()
	}
	return p.beginExchange(1, p.est1) // phase 1: champion a value
}

// beginExchange opens the (r, ph) exchange: run the memory step, if any,
// broadcast (r, ph, est), cut short by a mid-broadcast crash, then restart
// the tally with the values that arrived early. React then waits until more
// than n/2 processes reported. It reports whether the process finished.
func (p *proc) beginExchange(ph int, est model.Value) bool {
	p.ph = ph
	if p.memory != nil {
		est = p.memory(p.id, p.r, ph, est)
		if ph == 1 && p.atCrashPoint(1, failures.StageAfterClusterConsensus) {
			return p.crash()
		}
	}
	msg := phaseMsg{round: p.r, phase: ph, est: est}
	if p.atCrashPoint(ph, failures.StageMidBroadcast) {
		plan, _ := p.sched.Plan(p.id)
		recipients := plan.DeliverTo
		if recipients == nil {
			recipients = failures.RandomSubset(p.rng, p.n)
		}
		p.net.BroadcastSubset(p.id, msg, recipients)
		return p.crash()
	}
	p.net.Broadcast(p.id, msg)

	cur := phaseKey{round: p.r, phase: ph}
	p.t = tally{}
	for _, v := range p.pending[cur] {
		p.t.add(v)
	}
	delete(p.pending, cur)
	return false
}

// afterExchange runs the steps that follow a satisfied exchange, up to the
// next wait point: the phase-2 exchange, or deciding, adopting or flipping
// and opening the next round. It reports whether the process finished.
func (p *proc) afterExchange() bool {
	if p.memory == nil && p.atCrashPoint(p.ph, failures.StageAfterExchange) {
		return p.crash()
	}
	if p.ph == 1 {
		est2 := model.Bot
		if v, ok := p.t.majorityValue(p.n); ok {
			est2 = v
		}
		return p.beginExchange(2, est2) // phase 2: decide, adopt, or flip
	}
	rec, k := p.t.received()
	p.ctr.ObserveRound(int64(p.r))
	switch {
	case k == 1 && rec[0].IsBinary():
		return p.decide(rec[0])
	case k == 2 && rec[1] == model.Bot:
		p.est1 = rec[0]
	case k == 1 && rec[0] == model.Bot:
		p.est1 = p.local.Flip()
		p.ctr.AddCoinFlips(1)
	default:
		return p.finish(outcome{
			status: sim.StatusFailed,
			round:  p.r,
			err:    fmt.Errorf("benor: weak agreement violated at %v round %d: rec = %v", p.id, p.r, slices.Clone(rec[:k])),
		})
	}
	return p.nextRound()
}

// decide broadcasts DECIDE(v) and decides, or — at a before-decide crash —
// delivers DECIDE to the planned subset only and crashes.
func (p *proc) decide(v model.Value) bool {
	if p.atCrashPoint(2, failures.StageBeforeDecide) {
		plan, _ := p.sched.Plan(p.id)
		if len(plan.DeliverTo) > 0 {
			p.ctr.AddDecideMsgs(int64(len(plan.DeliverTo)))
			p.net.BroadcastSubset(p.id, decideMsg{val: v}, plan.DeliverTo)
		}
		return p.crash()
	}
	p.ctr.AddDecideMsgs(int64(p.n))
	p.net.Broadcast(p.id, decideMsg{val: v})
	return p.finish(outcome{status: sim.StatusDecided, val: v, round: p.r})
}

// ErrInvariantBroken reports a protocol invariant violation (a bug).
var ErrInvariantBroken = errors.New("benor: protocol invariant broken")

// newProc builds process i's reactor.
func newProc(cfg *Config, v *Variant, i int, nw *netsim.Network, ctr *metrics.Counters, h *driver.Handle, store *outcome) *proc {
	id := model.ProcID(i)
	var localCoin coin.Local
	if cfg.LocalCoinOverride != nil {
		localCoin = cfg.LocalCoinOverride(id)
	} else {
		localCoin = coin.NewPRNGLocal(coin.DeriveLocalSeed(cfg.Seed, id))
	}
	s1, s2 := coin.DeriveLocalSeed(cfg.Seed^v.SubsetSalt, id)
	return &proc{
		id:        id,
		n:         cfg.N,
		net:       nw,
		local:     localCoin,
		sched:     cfg.Crashes,
		ctr:       ctr,
		h:         h,
		rng:       rand.New(rand.NewPCG(s1, s2)),
		maxRounds: cfg.MaxRounds,
		memory:    v.Memory,
		pending:   make(map[phaseKey][]model.Value),
		store:     store,
		est1:      cfg.Proposals[i],
	}
}

// assemble builds the Result from the collected outcomes.
func assemble(cfg *Config, outcomes []outcome, ctr *metrics.Counters, elapsed time.Duration) (*sim.Result, error) {
	res := &sim.Result{
		Procs:   make([]sim.ProcResult, cfg.N),
		Metrics: ctr.Read(),
		Elapsed: elapsed,
	}
	for i, o := range outcomes {
		if o.status == sim.StatusFailed {
			return nil, fmt.Errorf("%w: %v", ErrInvariantBroken, o.err)
		}
		res.Procs[i] = sim.ProcResult{Status: o.status, Decision: o.val, Round: o.round}
	}
	return res, nil
}

// Memory is a shared-memory step before an exchange: it returns the estimate
// process p exchanges in phase ph of round r.
type Memory func(p model.ProcID, r, ph int, est model.Value) model.Value

// Variant turns the round machine into the m&m comparator (internal/mm):
// Ben-Or with a memory step before each exchange, on seeds of its own.
type Variant struct {
	// Memory, when non-nil, runs before each exchange. A round with a memory
	// step crashes an after-cluster-consensus plan right after phase 1's
	// step, and has no after-exchange point: such a plan strikes at the next
	// point.
	Memory Memory
	// NetSalt and SubsetSalt are xored into Config.Seed to seed the network
	// and the random recipients of crash-cut broadcasts.
	NetSalt    uint64
	SubsetSalt int64
}

// Run executes one Ben-Or consensus instance and returns per-process
// outcomes.
func Run(cfg Config) (*sim.Result, error) {
	return RunVariant(cfg, Variant{NetSalt: 0x9e6c_63d0_876a_9a7d, SubsetSalt: 0x1405_7b7e_f767_814f})
}

// RunVariant executes one instance of the round machine v describes.
func RunVariant(cfg Config, v Variant) (*sim.Result, error) {
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
	var ctr metrics.Counters
	var nw *netsim.Network
	outcomes := make([]outcome, cfg.N)
	out, err := driver.RunHandlers(driver.Config{
		MaxVirtualTime: cfg.MaxVirtualTime,
		MaxSteps:       cfg.MaxSteps,
		Crashes:        cfg.Crashes,
	}, cfg.N, driver.StandardNet(&nw, cfg.N, uint64(cfg.Seed)^v.NetSalt, &ctr, cfg.MinDelay, cfg.MaxDelay, cfg.NetOptions...),
		func(i int, h *driver.Handle) driver.Reactor {
			return newProc(&cfg, &v, i, nw, &ctr, h, &outcomes[i])
		})
	if err != nil {
		return nil, err
	}
	res, err := assemble(&cfg, outcomes, &ctr, out.Elapsed)
	if err != nil {
		return nil, err
	}
	out.Fill(res)
	return res, nil
}
