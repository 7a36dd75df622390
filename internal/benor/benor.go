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
	// Body selects the process-body form: sim.BodyAuto (the zero value)
	// runs inline handlers; sim.BodyCoroutine forces the coroutine form
	// for differential testing (both forms produce identical Results).
	Body sim.BodyKind
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
	pending   map[phaseKey][]model.Value
}

// killedNow reports whether a timed crash has struck this process; it
// halts at the next step point that observes it.
func (p *proc) killedNow() bool { return p.h.Killed() }

type outcome struct {
	status sim.Status
	val    model.Value
	round  int
	err    error
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

// exchange is Ben-Or's per-phase pattern: broadcast (r, ph, est) and wait
// until more than n/2 processes reported for (r, ph) into t.
func (p *proc) exchange(r, ph int, est model.Value, t *tally) *outcome {
	cur := phaseKey{round: r, phase: ph}
	if out := p.beginExchange(r, ph, est, t); out != nil {
		return out
	}

	for 2*t.total <= p.n {
		msg, ok := p.net.Receive(p.id)
		if p.killedNow() {
			// A timed crash struck while waiting: halt before acting on
			// whatever was (or was not) received.
			return &outcome{status: sim.StatusCrashed, round: r}
		}
		if !ok {
			return &outcome{status: sim.StatusBlocked, round: r}
		}
		if out := p.feedExchange(cur, t, msg); out != nil {
			return out
		}
	}
	return nil
}

// beginExchange opens the (r, ph) exchange without waiting: broadcast
// (honoring a mid-broadcast crash), then restart t with the buffered
// values. Both body forms open exchanges through it, keeping the send
// sequence — and the network's RNG stream — identical under either form.
func (p *proc) beginExchange(r, ph int, est model.Value, t *tally) *outcome {
	cur := phaseKey{round: r, phase: ph}
	if p.sched.ShouldCrash(p.id, failures.Point{Round: r, Phase: ph, Stage: failures.StageMidBroadcast}) {
		plan, _ := p.sched.Plan(p.id)
		recipients := plan.DeliverTo
		if recipients == nil {
			recipients = failures.RandomSubset(p.rng, p.n)
		}
		p.net.BroadcastSubset(p.id, phaseMsg{round: r, phase: ph, est: est}, recipients)
		return &outcome{status: sim.StatusCrashed, round: r}
	}
	p.net.Broadcast(p.id, phaseMsg{round: r, phase: ph, est: est})

	*t = tally{}
	for _, v := range p.pending[cur] {
		t.add(v)
	}
	delete(p.pending, cur)
	return nil
}

// feedExchange accounts one received message against the exchange open at
// cur. It returns a non-nil outcome when the message ends the execution (a
// DECIDE was learned: rebroadcast, then decide).
func (p *proc) feedExchange(cur phaseKey, t *tally, msg netsim.Message) *outcome {
	switch payload := msg.Payload.(type) {
	case decideMsg:
		p.ctr.AddDecideMsgs(int64(p.n))
		p.net.Broadcast(p.id, payload)
		return &outcome{status: sim.StatusDecided, val: payload.val, round: cur.round}
	case phaseMsg:
		k := phaseKey{round: payload.round, phase: payload.phase}
		switch {
		case k == cur:
			t.add(payload.est)
		case cur.less(k):
			p.pending[k] = append(p.pending[k], payload.est)
		}
	}
	return nil
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

// run executes Ben-Or's algorithm for one process.
func (p *proc) run(proposal model.Value) outcome {
	est1 := proposal
	var t1, t2 tally
	for r := 1; ; r++ {
		if out := p.checkAbort(r); out != nil {
			return *out
		}
		if p.sched.ShouldCrash(p.id, failures.Point{Round: r, Phase: 1, Stage: failures.StageRoundStart}) {
			return outcome{status: sim.StatusCrashed, round: r}
		}

		// Phase 1: champion a value if a majority reports it.
		if interrupted := p.exchange(r, 1, est1, &t1); interrupted != nil {
			return *interrupted
		}
		if p.sched.ShouldCrash(p.id, failures.Point{Round: r, Phase: 1, Stage: failures.StageAfterExchange}) {
			return outcome{status: sim.StatusCrashed, round: r}
		}
		est2 := model.Bot
		if v, ok := t1.majorityValue(p.n); ok {
			est2 = v
		}

		// Phase 2: decide, adopt, or flip.
		if interrupted := p.exchange(r, 2, est2, &t2); interrupted != nil {
			return *interrupted
		}
		if p.sched.ShouldCrash(p.id, failures.Point{Round: r, Phase: 2, Stage: failures.StageAfterExchange}) {
			return outcome{status: sim.StatusCrashed, round: r}
		}
		rec, k := t2.received()
		p.ctr.ObserveRound(int64(r))
		switch {
		case k == 1 && rec[0].IsBinary():
			return p.decideNow(r, 2, rec[0])
		case k == 2 && rec[1] == model.Bot:
			est1 = rec[0]
		case k == 1 && rec[0] == model.Bot:
			est1 = p.local.Flip()
			p.ctr.AddCoinFlips(1)
		default:
			return outcome{
				status: sim.StatusFailed,
				round:  r,
				err:    fmt.Errorf("benor: weak agreement violated at %v round %d: rec = %v", p.id, r, slices.Clone(rec[:k])),
			}
		}
	}
}

// ErrInvariantBroken reports a protocol invariant violation (a bug).
var ErrInvariantBroken = errors.New("benor: protocol invariant broken")

// newProc builds process i's runtime state.
func newProc(cfg *Config, i int, nw *netsim.Network, ctr *metrics.Counters) *proc {
	id := model.ProcID(i)
	var localCoin coin.Local
	if cfg.LocalCoinOverride != nil {
		localCoin = cfg.LocalCoinOverride(id)
	} else {
		localCoin = coin.NewPRNGLocal(coin.DeriveLocalSeed(cfg.Seed, id))
	}
	s1, s2 := coin.DeriveLocalSeed(cfg.Seed^0x1405_7b7e_f767_814f, id)
	return &proc{
		id:        id,
		n:         cfg.N,
		net:       nw,
		local:     localCoin,
		sched:     cfg.Crashes,
		ctr:       ctr,
		rng:       rand.New(rand.NewPCG(s1, s2)),
		maxRounds: cfg.MaxRounds,
		pending:   make(map[phaseKey][]model.Value),
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

// Run executes one Ben-Or consensus instance and returns per-process
// outcomes.
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
	if cfg.Body != sim.BodyAuto && cfg.Body != sim.BodyCoroutine {
		return nil, fmt.Errorf("%w: unknown body kind %d", ErrBadConfig, int(cfg.Body))
	}
	var ctr metrics.Counters
	var nw *netsim.Network
	outcomes := make([]outcome, cfg.N)
	dcfg := driver.Config{
		MaxVirtualTime: cfg.MaxVirtualTime,
		MaxSteps:       cfg.MaxSteps,
		Crashes:        cfg.Crashes,
	}
	newNet := driver.StandardNet(&nw, cfg.N, uint64(cfg.Seed)^0x9e6c_63d0_876a_9a7d, &ctr, cfg.MinDelay, cfg.MaxDelay, cfg.NetOptions...)
	var out driver.Outcome
	var err error
	if cfg.Body != sim.BodyCoroutine {
		// The default fast path: inline handler bodies (DESIGN.md §11).
		out, err = driver.RunHandlers(dcfg, cfg.N, newNet, func(i int, h *driver.Handle) driver.Reactor {
			p := newProc(&cfg, i, nw, &ctr)
			p.h = h
			return &reactor{proc: p, proposal: cfg.Proposals[i], store: &outcomes[i]}
		})
	} else {
		out, err = driver.Run(dcfg, cfg.N, newNet, func(i int, h *driver.Handle) {
			p := newProc(&cfg, i, nw, &ctr)
			p.h = h
			outcomes[i] = p.run(cfg.Proposals[i])
		})
	}
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
