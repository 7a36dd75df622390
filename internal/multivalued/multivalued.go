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

	delivered   map[model.ProcID]string // URB-delivered proposals
	binDecided  map[int]model.Value     // finished binary instances
	pendingInst map[instKey][]pendingInstMsg
	globalRound int // monotone count of binary rounds, for crash points
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

// binaryInstance runs one tagged instance of the paper's Algorithm 3 and
// returns its binary decision, or a final outcome if the execution ended.
func (p *proc) binaryInstance(inst int, input model.Value) (model.Value, *outcome) {
	if v, ok := p.binDecided[inst]; ok {
		return v, nil
	}
	est := input
	for r := 1; ; r++ {
		p.globalRound++
		if p.h.Killed() {
			return model.Bot, &outcome{status: sim.StatusCrashed, rounds: p.globalRound}
		}
		if p.h.Aborted() || (p.maxRnd > 0 && r > p.maxRnd) {
			return model.Bot, &outcome{status: sim.StatusBlocked, rounds: p.globalRound}
		}
		if p.sched.ShouldCrash(p.id, failures.Point{
			Round: p.globalRound, Phase: 1, Stage: failures.StageRoundStart,
		}) {
			return model.Bot, &outcome{status: sim.StatusCrashed, rounds: p.globalRound}
		}

		// Cluster agreement (one CONS object per instance round).
		est = p.clusterPropose(inst, r, est)

		// Exchange with closure accounting.
		cur := instKey{inst: inst, round: r}
		p.net.Broadcast(p.id, instMsg{Inst: inst, Round: r, Est: est})
		sup := newTally(p.part.N())
		for _, bm := range p.pendingInst[cur] {
			sup.add(p.part, bm.from, bm.est)
		}
		delete(p.pendingInst, cur)
		for !sup.covers.IsMajority() {
			// An instance short-circuit may have arrived while buffering.
			if v, ok := p.binDecided[inst]; ok {
				return v, nil
			}
			msg, ok := p.net.Receive(p.id)
			if p.h.Killed() {
				// A timed crash struck while waiting: halt before acting on
				// whatever was (or was not) received.
				return model.Bot, &outcome{status: sim.StatusCrashed, rounds: p.globalRound}
			}
			if !ok {
				return model.Bot, &outcome{status: sim.StatusBlocked, rounds: p.globalRound}
			}
			if out := p.handle(msg, cur, sup); out != nil {
				return model.Bot, out
			}
		}
		if v, ok := p.binDecided[inst]; ok {
			return v, nil
		}

		s := p.commonBit(inst, r)
		p.ctr.ObserveRound(int64(p.globalRound))
		if v, ok := sup.majority(); ok {
			est = v
			if s == v {
				p.binDecided[inst] = v
				p.ctr.AddDecideMsgs(int64(p.part.N()))
				p.net.Broadcast(p.id, binDecideMsg{Inst: inst, Val: v})
				return v, nil
			}
		} else {
			est = s
		}
	}
}

// clusterPropose runs the intra-cluster consensus for (instance, round).
func (p *proc) clusterPropose(inst, r int, v model.Value) model.Value {
	out := p.cons.Propose(inst*1_000_000+r, 1, v)
	p.ctr.AddConsInvocations(1)
	return out
}

// run executes the full reduction for one process.
func (p *proc) run(proposal string) outcome {
	// Stage 1: URB-broadcast own proposal (broadcast = forward; then
	// deliver locally).
	p.net.Broadcast(p.id, propMsg{Origin: p.id, Val: proposal})
	p.delivered[p.id] = proposal

	// Stage 2: cycle binary instances over target processes.
	maxInst := p.maxInst
	for inst := 0; inst < maxInst; inst++ {
		target := model.ProcID(inst % p.part.N())
		input := model.Zero
		if _, ok := p.delivered[target]; ok {
			input = model.One
		}
		dec, fin := p.binaryInstance(inst, input)
		if fin != nil {
			return *fin
		}
		if dec != model.One {
			continue
		}
		// Stage 3: wait for the guaranteed delivery of the winner's value.
		for {
			if v, ok := p.delivered[target]; ok {
				p.ctr.AddDecideMsgs(int64(p.part.N()))
				p.net.Broadcast(p.id, mvDecideMsg{Val: v})
				return outcome{status: sim.StatusDecided, val: v, rounds: p.globalRound}
			}
			msg, ok := p.net.Receive(p.id)
			if p.h.Killed() {
				return outcome{status: sim.StatusCrashed, rounds: p.globalRound}
			}
			if !ok {
				return outcome{status: sim.StatusBlocked, rounds: p.globalRound}
			}
			if out := p.handle(msg, instKey{inst: maxInst + 1}, nil); out != nil {
				return *out
			}
		}
	}
	return outcome{status: sim.StatusBlocked, rounds: p.globalRound}
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
	out, err := driver.Run(driver.Config{
		MaxVirtualTime: cfg.MaxVirtualTime,
		MaxSteps:       cfg.MaxSteps,
		Crashes:        cfg.Crashes,
	}, n, driver.StandardNet(&nw, n, uint64(cfg.Seed)^0x60be_e2be_e120_fc15, &ctr, cfg.MinDelay, cfg.MaxDelay, cfg.NetOptions...),
		func(i int, h *driver.Handle) {
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
			}
			outcomes[i] = p.run(cfg.Proposals[i])
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
