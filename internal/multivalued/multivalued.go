// Package multivalued extends the paper's binary consensus to arbitrary
// proposal values — the classical reduction from multivalued to binary
// consensus (as in Raynal 2018, and Cachin-Guerraoui-Rodrigues 2011),
// instantiated over the hybrid communication model so that it inherits the
// one-for-all fault tolerance.
//
// Construction:
//
//  1. Every process URB-broadcasts PROP(i, v_i) (uniform reliable
//     broadcast: forward on first receipt, deliver after forwarding — if
//     any process delivers, every correct process eventually delivers).
//  2. Processes run binary consensus instances k = 0, 1, 2, … (on process
//     index k mod n, cycling). The input of instance k is 1 iff PROP of
//     the target process has been delivered. Each instance is the paper's
//     Algorithm 3 (common coin, cluster consensus, closure accounting).
//  3. The first instance that decides 1 selects its target's proposal:
//     processes wait for the (guaranteed) URB delivery and decide that
//     value, broadcasting MV-DECIDE so that stragglers terminate.
//
// Termination: once every correct process has delivered every correct
// process's proposal, the next instance targeting a correct process gets
// unanimous input 1 and must decide 1. Under the paper's liveness
// condition (clusters with a survivor covering a majority), the embedded
// binary instances terminate with probability 1, so the reduction does
// too — including under majority crashes that keep a majority-cluster
// survivor.
package multivalued

import (
	"errors"
	"fmt"
	"time"

	"allforone/internal/coin"
	"allforone/internal/consensusobj"
	"allforone/internal/driver"
	"allforone/internal/failures"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/sim"
	"allforone/internal/vclock"
)

// Config describes one multivalued consensus execution.
type Config struct {
	// Partition is the cluster decomposition (required).
	Partition *model.Partition
	// Proposals holds each process's proposed value (required, length n).
	// Values may repeat; the empty string is a valid proposal.
	Proposals []string
	// Seed makes all randomness reproducible: it pins the entire
	// execution.
	Seed int64
	// Crashes is the failure pattern; crash points are consulted at the
	// start of every binary round, with Round counting binary rounds
	// globally across instances. Nil means crash-free.
	Crashes *failures.Schedule
	// MaxInstances bounds the number of binary instances (0 = 4n).
	MaxInstances int
	// MaxRoundsPerInstance bounds each binary instance (0 = 1000).
	MaxRoundsPerInstance int
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
}

// Errors returned by Run.
var ErrBadConfig = errors.New("multivalued: invalid configuration")

// ProcResult is one process's outcome.
type ProcResult struct {
	Status   sim.Status
	Decision string // meaningful iff Status == StatusDecided
	Rounds   int    // total binary rounds executed
}

// Result aggregates a run.
type Result struct {
	Procs   []ProcResult
	Metrics metrics.Snapshot
	// Elapsed is the run duration on the virtual clock (always equal to
	// VirtualTime, so Results are bit-reproducible from their Configs).
	Elapsed time.Duration
	// VirtualTime / Steps / Quiesced report the engine's clock,
	// event count, and deterministic blocked-forever verdict (see sim.Result).
	VirtualTime time.Duration
	Steps       int64
	Quiesced    bool
	// DeadlineExceeded / StepsExceeded report a bounded-out run — cut short
	// at a MaxVirtualTime / MaxSteps budget, inconclusive about liveness
	// (see sim.Result).
	DeadlineExceeded bool
	StepsExceeded    bool
	// Sched counts the scheduler's internal work (events scheduled,
	// timer-wheel cascades, deepest bucket; see sim.Result).
	Sched vclock.SchedulerStats
}

// Decided returns the decided value and how many processes decided it.
func (r *Result) Decided() (val string, count int, ok bool) {
	for _, pr := range r.Procs {
		if pr.Status == sim.StatusDecided {
			count++
			val = pr.Decision
		}
	}
	return val, count, count > 0
}

// AllLiveDecided reports whether every non-crashed process decided.
func (r *Result) AllLiveDecided() bool {
	for _, pr := range r.Procs {
		if pr.Status != sim.StatusDecided && pr.Status != sim.StatusCrashed {
			return false
		}
	}
	return true
}

// CheckAgreement verifies all decisions are equal.
func (r *Result) CheckAgreement() error {
	first := ""
	seen := false
	for i, pr := range r.Procs {
		if pr.Status != sim.StatusDecided {
			continue
		}
		if !seen {
			first, seen = pr.Decision, true
			continue
		}
		if pr.Decision != first {
			return fmt.Errorf("multivalued: agreement violated: %v decided %q, earlier %q",
				model.ProcID(i), pr.Decision, first)
		}
	}
	return nil
}

// CheckValidity verifies every decision was somebody's proposal.
func (r *Result) CheckValidity(proposals []string) error {
	for i, pr := range r.Procs {
		if pr.Status != sim.StatusDecided {
			continue
		}
		ok := false
		for _, p := range proposals {
			if p == pr.Decision {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("multivalued: validity violated: %v decided %q, never proposed",
				model.ProcID(i), pr.Decision)
		}
	}
	return nil
}

// Message types.

// propMsg carries a URB-forwarded proposal.
type propMsg struct {
	Origin model.ProcID
	Val    string
}

// instMsg is the (instance, round, est) message of the embedded binary
// instances.
type instMsg struct {
	Inst  int
	Round int
	Est   model.Value
}

// binDecideMsg short-circuits one binary instance.
type binDecideMsg struct {
	Inst int
	Val  model.Value
}

// mvDecideMsg announces the final multivalued decision.
type mvDecideMsg struct {
	Val string
}

// instKey orders protocol positions: instance, then round.
type instKey struct{ inst, round int }

func (k instKey) less(o instKey) bool {
	if k.inst != o.inst {
		return k.inst < o.inst
	}
	return k.round < o.round
}

type outcome struct {
	status sim.Status
	val    string
	rounds int
}

// proc is one process, a driver.Reactor (DESIGN.md §11). It waits at two
// kinds of point: inside an exchange of binary instance inst, round r, until
// its supporters cover a majority or the instance is decided; or, once an
// instance decided 1, until the URB delivery of that instance's target.
// Everything between two waits runs straight-line inside one invocation, in
// the algorithm's statement order.
type proc struct {
	id      model.ProcID
	part    *model.Partition
	net     *netsim.Network
	cons    *consensusobj.Array
	seed    int64
	sched   *failures.Schedule
	ctr     *metrics.Counters
	h       *driver.Handle // the engine's abort/kill state
	maxInst int
	maxRnd  int
	store   *outcome // this process's result slot

	delivered   map[model.ProcID]string // URB-delivered proposals
	binDecided  map[int]model.Value     // finished binary instances
	pendingInst map[instKey][]pendingInstMsg
	globalRound int // monotone count of binary rounds, for crash points; 0 before the first invocation

	inst, r  int          // the open instance and round
	est      model.Value  // the open round's estimate
	sup      *tally       // the open exchange's supporters
	awaiting bool         // instance inst decided 1: wait for its target's proposal
	target   model.ProcID // instance inst's target process
}

type pendingInstMsg struct {
	from model.ProcID
	est  model.Value
}

// commonBit derives the shared coin bit of (instance, round): a pure
// function of the run seed, so every process reads the same sequence.
func (p *proc) commonBit(inst, round int) model.Value {
	c := coin.NewSplitMixCommon(uint64(p.seed) ^ (uint64(inst+1) * 0x9e37_79b9_7f4a_7c15))
	return c.Bit(round)
}

// urbDeliver implements the forward-then-deliver discipline: on the first
// PROP(origin, v), forward it to everyone, then record the delivery.
func (p *proc) urbDeliver(m propMsg) {
	if _, ok := p.delivered[m.Origin]; ok {
		return
	}
	p.net.Broadcast(p.id, m) // forward first (uniformity)
	p.delivered[m.Origin] = m.Val
}

// handle dispatches one incoming message; it returns a non-nil final
// outcome when the message ends the whole execution (MV-DECIDE).
func (p *proc) handle(msg netsim.Message, cur instKey, sup *tally) *outcome {
	switch m := msg.Payload.(type) {
	case propMsg:
		p.urbDeliver(m)
	case mvDecideMsg:
		p.net.Broadcast(p.id, m) // relay before deciding (no deadlock)
		return &outcome{status: sim.StatusDecided, val: m.Val, rounds: p.globalRound}
	case binDecideMsg:
		if _, ok := p.binDecided[m.Inst]; !ok {
			p.binDecided[m.Inst] = m.Val
		}
	case instMsg:
		k := instKey{inst: m.Inst, round: m.Round}
		switch {
		case k == cur && sup != nil:
			sup.add(p.part, msg.From, m.Est)
		case cur.less(k):
			p.pendingInst[k] = append(p.pendingInst[k], pendingInstMsg{from: msg.From, est: m.Est})
		}
	}
	return nil
}

// tally is the supporters accounting with cluster closure (one for all).
type tally struct {
	n      int
	byVal  map[model.Value]*model.ProcSet
	covers *model.ProcSet
}

func newTally(n int) *tally {
	return &tally{n: n, byVal: make(map[model.Value]*model.ProcSet, 2), covers: model.NewProcSet(n)}
}

func (t *tally) add(part *model.Partition, sender model.ProcID, v model.Value) {
	set, ok := t.byVal[v]
	if !ok {
		set = model.NewProcSet(t.n)
		t.byVal[v] = set
	}
	closure := part.Cluster(sender)
	set.UnionInto(closure)
	t.covers.UnionInto(closure)
}

func (t *tally) majority() (model.Value, bool) {
	for _, v := range []model.Value{model.Zero, model.One} {
		if set, ok := t.byVal[v]; ok && set.IsMajority() {
			return v, true
		}
	}
	return model.Bot, false
}

// React runs one invocation: drain every deliverable message and advance
// the reduction to its next wait point.
func (p *proc) React(aborted bool) bool {
	if p.globalRound == 0 {
		if aborted {
			return true // the run ended before this process took a step
		}
		// Stage 1: URB-broadcast own proposal (broadcast = forward; then
		// deliver locally).
		p.net.Broadcast(p.id, propMsg{Origin: p.id, Val: p.delivered[p.id]})
		if p.openInstance() {
			return true
		}
	}
	if aborted {
		return p.stop() // queued messages stay unconsumed
	}
	for {
		cur, sup := instKey{inst: p.inst, round: p.r}, p.sup
		if p.awaiting {
			if v, ok := p.delivered[p.target]; ok {
				p.ctr.AddDecideMsgs(int64(p.part.N()))
				p.net.Broadcast(p.id, mvDecideMsg{Val: v})
				return p.finish(sim.StatusDecided, v)
			}
			cur, sup = instKey{inst: p.maxInst + 1}, nil
		} else if v, ok := p.binDecided[p.inst]; ok {
			// An instance short-circuit may have arrived while buffering.
			if p.instanceDecided(v) {
				return true
			}
			continue
		} else if p.sup.covers.IsMajority() {
			if p.roundDone() {
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
		if out := p.handle(msg, cur, sup); out != nil {
			*p.store = *out
			return true
		}
	}
}

// finish records the outcome; React returns its result, retiring the
// process.
func (p *proc) finish(status sim.Status, val string) bool {
	*p.store = outcome{status: status, val: val, rounds: p.globalRound}
	return true
}

// stop ends the process where it waits: crashed if a timed crash struck it,
// blocked otherwise.
func (p *proc) stop() bool {
	if p.h.Killed() {
		return p.finish(sim.StatusCrashed, "")
	}
	return p.finish(sim.StatusBlocked, "")
}

// openInstance opens binary instance inst — Stage 2 cycles the instances
// over the target processes — or, at the instance cap, ends blocked. An
// instance already decided by a short-circuit needs no round. It reports
// whether the process finished.
func (p *proc) openInstance() bool {
	for ; p.inst < p.maxInst; p.inst++ {
		p.target = model.ProcID(p.inst % p.part.N())
		v, ok := p.binDecided[p.inst]
		if !ok {
			p.est = model.Zero
			if _, ok := p.delivered[p.target]; ok {
				p.est = model.One
			}
			p.r = 0
			return p.openRound()
		}
		if v == model.One {
			p.awaiting = true
			return false
		}
	}
	return p.finish(sim.StatusBlocked, "")
}

// instanceDecided moves on from instance inst, decided v: to Stage 3's wait
// if v is 1, else to the next instance.
func (p *proc) instanceDecided(v model.Value) bool {
	if v == model.One {
		p.awaiting = true
		return false
	}
	p.inst++
	return p.openInstance()
}

// openRound opens round r+1 of the open instance — the paper's Algorithm 3:
// its abort and crash checks, cluster agreement (one CONS object per
// instance round), then the exchange with closure accounting. It reports
// whether the process finished.
func (p *proc) openRound() bool {
	p.r++
	p.globalRound++
	switch {
	case p.h.Killed():
		return p.finish(sim.StatusCrashed, "")
	case p.h.Aborted() || (p.maxRnd > 0 && p.r > p.maxRnd):
		return p.finish(sim.StatusBlocked, "")
	case p.sched.ShouldCrash(p.id, failures.Point{Round: p.globalRound, Phase: 1, Stage: failures.StageRoundStart}):
		return p.finish(sim.StatusCrashed, "")
	}
	p.est = p.clusterPropose(p.inst, p.r, p.est)
	cur := instKey{inst: p.inst, round: p.r}
	p.net.Broadcast(p.id, instMsg{Inst: p.inst, Round: p.r, Est: p.est})
	p.sup = newTally(p.part.N())
	for _, bm := range p.pendingInst[cur] {
		p.sup.add(p.part, bm.from, bm.est)
	}
	delete(p.pendingInst, cur)
	return false
}

// roundDone acts on a round whose supporters cover a majority: flip the
// common coin, then decide the instance or carry the estimate into the
// next round.
func (p *proc) roundDone() bool {
	s := p.commonBit(p.inst, p.r)
	p.ctr.ObserveRound(int64(p.globalRound))
	if v, ok := p.sup.majority(); ok {
		p.est = v
		if s == v {
			p.binDecided[p.inst] = v
			p.ctr.AddDecideMsgs(int64(p.part.N()))
			p.net.Broadcast(p.id, binDecideMsg{Inst: p.inst, Val: v})
			return p.instanceDecided(v)
		}
	} else {
		p.est = s
	}
	return p.openRound()
}

// clusterPropose runs the intra-cluster consensus for (instance, round).
func (p *proc) clusterPropose(inst, r int, v model.Value) model.Value {
	out := p.cons.Propose(inst*1_000_000+r, 1, v)
	p.ctr.AddConsInvocations(1)
	return out
}

// Run executes one multivalued consensus instance.
func Run(cfg Config) (*Result, error) {
	if cfg.Partition == nil {
		return nil, fmt.Errorf("%w: nil partition", ErrBadConfig)
	}
	n := cfg.Partition.N()
	if len(cfg.Proposals) != n {
		return nil, fmt.Errorf("%w: %d proposals for %d processes", ErrBadConfig, len(cfg.Proposals), n)
	}

	var ctr metrics.Counters
	var nw *netsim.Network
	arrays := make([]*consensusobj.Array, cfg.Partition.M())
	for x := range arrays {
		arrays[x] = consensusobj.NewArray()
	}

	maxInst := cfg.MaxInstances
	if maxInst <= 0 {
		maxInst = 4 * n
	}
	maxRnd := cfg.MaxRoundsPerInstance
	if maxRnd <= 0 {
		maxRnd = 1000
	}

	outcomes := make([]outcome, n)
	out, err := driver.RunHandlers(driver.Config{
		MaxVirtualTime: cfg.MaxVirtualTime,
		MaxSteps:       cfg.MaxSteps,
		Crashes:        cfg.Crashes,
	}, n, driver.StandardNet(&nw, n, uint64(cfg.Seed)^0x60be_e2be_e120_fc15, &ctr, cfg.MinDelay, cfg.MaxDelay, cfg.NetOptions...),
		func(i int, h *driver.Handle) driver.Reactor {
			id := model.ProcID(i)
			p := &proc{
				id:          id,
				part:        cfg.Partition,
				net:         nw,
				cons:        arrays[cfg.Partition.ClusterOf(id)],
				seed:        cfg.Seed,
				sched:       cfg.Crashes,
				ctr:         &ctr,
				h:           h,
				maxInst:     maxInst,
				maxRnd:      maxRnd,
				delivered:   make(map[model.ProcID]string, n),
				binDecided:  make(map[int]model.Value),
				pendingInst: make(map[instKey][]pendingInstMsg),
				store:       &outcomes[i],
			}
			p.delivered[id] = cfg.Proposals[i]
			return p
		})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Procs:            make([]ProcResult, n),
		Metrics:          ctr.Read(),
		Elapsed:          out.Elapsed,
		VirtualTime:      out.VirtualTime,
		Steps:            out.Steps,
		Quiesced:         out.Quiesced,
		DeadlineExceeded: out.DeadlineExceeded,
		StepsExceeded:    out.StepsExceeded,
		Sched:            out.Sched,
	}
	for i, o := range outcomes {
		res.Procs[i] = ProcResult{Status: o.status, Decision: o.val, Rounds: o.rounds}
	}
	return res, nil
}
