// Package smr builds a replicated log (state-machine-replication core) on
// top of the hybrid communication model: a sequence of log slots, each
// decided by the multivalued-over-binary reduction running the paper's
// Algorithm 3 instances — so the log inherits the one-for-all fault
// tolerance (a majority-cluster survivor keeps appending alone).
//
// Each replica proposes the front of its command queue for the next
// undecided slot (or the empty no-op); the slot's consensus picks exactly
// one proposal; all live replicas append the same value. Agreement across
// the whole log follows from per-slot agreement plus in-order processing.
//
// The runtime is one process per replica over a shared simulated network
// (a vclock coroutine — see internal/driver), with all protocol messages
// tagged by (slot, instance, round) so replicas at different log positions
// never confuse each other's traffic; per-slot and per-instance DECIDE
// short-circuits let stragglers catch up.
package smr

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

// Config describes one replicated-log execution.
type Config struct {
	// Partition is the cluster decomposition (required).
	Partition *model.Partition
	// Commands holds each replica's queue of commands to append (length n;
	// queues may be empty — such replicas propose no-ops).
	Commands [][]string
	// Slots is how many log slots to agree on (required, ≥ 1).
	Slots int
	// Seed makes all randomness reproducible: it pins the entire
	// execution.
	Seed int64
	// Crashes is the failure pattern; crash points are consulted at binary
	// round starts with Round counting rounds globally. Nil = crash-free.
	Crashes *failures.Schedule
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

// NoOp is the value a slot decides when the winning proposer had no
// pending command.
const NoOp = ""

// Errors returned by Run.
var ErrBadConfig = errors.New("smr: invalid configuration")

// ReplicaResult is one replica's view of the execution.
type ReplicaResult struct {
	Status sim.Status
	Log    []string // decided slots, in order (may be a prefix if crashed/blocked)
	Rounds int      // total binary rounds executed
}

// Result aggregates a run.
type Result struct {
	Replicas []ReplicaResult
	Metrics  metrics.Snapshot
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

// CheckLogAgreement verifies that all replica logs agree slot-by-slot on
// their common prefix (the SMR safety property).
func (r *Result) CheckLogAgreement() error {
	for i, a := range r.Replicas {
		for j := i + 1; j < len(r.Replicas); j++ {
			b := r.Replicas[j]
			k := len(a.Log)
			if len(b.Log) < k {
				k = len(b.Log)
			}
			for s := 0; s < k; s++ {
				if a.Log[s] != b.Log[s] {
					return fmt.Errorf("smr: log disagreement at slot %d: replica %d has %q, replica %d has %q",
						s, i, a.Log[s], j, b.Log[s])
				}
			}
		}
	}
	return nil
}

// CheckLogValidity verifies every decided command was proposed by some
// replica (or is the no-op).
func (r *Result) CheckLogValidity(commands [][]string) error {
	proposed := map[string]bool{NoOp: true}
	for _, q := range commands {
		for _, c := range q {
			proposed[c] = true
		}
	}
	for i, rep := range r.Replicas {
		for s, v := range rep.Log {
			if !proposed[v] {
				return fmt.Errorf("smr: replica %d slot %d holds %q, never proposed", i, s, v)
			}
		}
	}
	return nil
}

// CompletedLogs returns the logs of replicas that finished all slots.
func (r *Result) CompletedLogs(slots int) [][]string {
	var out [][]string
	for _, rep := range r.Replicas {
		if rep.Status == sim.StatusDecided && len(rep.Log) == slots {
			out = append(out, rep.Log)
		}
	}
	return out
}

// Message types (all tagged with the slot).

type propMsg struct {
	Slot   int
	Origin model.ProcID
	Val    string
}

type instMsg struct {
	Slot  int
	Inst  int
	Round int
	Est   model.Value
}

type binDecideMsg struct {
	Slot int
	Inst int
	Val  model.Value
}

type slotDecideMsg struct {
	Slot int
	Val  string
}

// posKey orders protocol positions: slot, then instance, then round.
type posKey struct{ slot, inst, round int }

func (k posKey) less(o posKey) bool {
	if k.slot != o.slot {
		return k.slot < o.slot
	}
	if k.inst != o.inst {
		return k.inst < o.inst
	}
	return k.round < o.round
}

type pendingMsg struct {
	from model.ProcID
	est  model.Value
}

type outcome struct {
	status sim.Status
	log    []string
	rounds int
}

type replica struct {
	id      model.ProcID
	part    *model.Partition
	net     *netsim.Network
	cons    *consensusobj.Array
	seed    int64
	sched   *failures.Schedule
	ctr     *metrics.Counters
	h       *driver.Handle // the engine's abort/kill state
	maxRnd  int
	queue   []string
	slots   int
	maxInst int

	delivered   map[[2]int]string      // (slot, origin) -> proposal
	binDecided  map[[2]int]model.Value // (slot, inst) -> decision
	slotDecided map[int]string         // slot -> value
	pending     map[posKey][]pendingMsg
	log         []string
	globalRound int
}

// commonBit is the shared coin for (slot, instance, round).
func (r *replica) commonBit(slot, inst, round int) model.Value {
	mix := uint64(r.seed) ^ (uint64(slot+1) * 0xbf58_476d_1ce4_e5b9) ^ (uint64(inst+1) * 0x94d0_49bb_1331_11eb)
	return coin.NewSplitMixCommon(mix).Bit(round)
}

// urbDeliver forwards then records a proposal (uniformity discipline).
func (r *replica) urbDeliver(m propMsg) {
	key := [2]int{m.Slot, int(m.Origin)}
	if _, ok := r.delivered[key]; ok {
		return
	}
	r.net.Broadcast(r.id, m)
	r.delivered[key] = m.Val
}

// handle dispatches one message; cur/sup describe the replica's current
// collection point (sup nil when not collecting).
func (r *replica) handle(msg netsim.Message, cur posKey, sup *tally) {
	switch m := msg.Payload.(type) {
	case propMsg:
		r.urbDeliver(m)
	case slotDecideMsg:
		if _, ok := r.slotDecided[m.Slot]; !ok {
			r.slotDecided[m.Slot] = m.Val
			r.net.Broadcast(r.id, m) // relay so every replica learns it
		}
	case binDecideMsg:
		key := [2]int{m.Slot, m.Inst}
		if _, ok := r.binDecided[key]; !ok {
			r.binDecided[key] = m.Val
		}
	case instMsg:
		k := posKey{slot: m.Slot, inst: m.Inst, round: m.Round}
		switch {
		case k == cur && sup != nil:
			sup.add(r.part, msg.From, m.Est)
		case cur.less(k):
			r.pending[k] = append(r.pending[k], pendingMsg{from: msg.From, est: m.Est})
		}
	}
}

// tally is the closure-based supporter accounting.
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

// binaryInstance runs one (slot, inst)-tagged Algorithm-3 instance.
func (r *replica) binaryInstance(slot, inst int, input model.Value) (model.Value, *outcome) {
	key := [2]int{slot, inst}
	if v, ok := r.binDecided[key]; ok {
		return v, nil
	}
	est := input
	for round := 1; ; round++ {
		r.globalRound++
		if r.h.Killed() {
			return model.Bot, &outcome{status: sim.StatusCrashed, log: r.log, rounds: r.globalRound}
		}
		if r.h.Aborted() || (r.maxRnd > 0 && round > r.maxRnd) {
			return model.Bot, &outcome{status: sim.StatusBlocked, log: r.log, rounds: r.globalRound}
		}
		if r.sched.ShouldCrash(r.id, failures.Point{
			Round: r.globalRound, Phase: 1, Stage: failures.StageRoundStart,
		}) {
			return model.Bot, &outcome{status: sim.StatusCrashed, log: r.log, rounds: r.globalRound}
		}

		est = r.clusterPropose(slot, inst, round, est)
		cur := posKey{slot: slot, inst: inst, round: round}
		r.net.Broadcast(r.id, instMsg{Slot: slot, Inst: inst, Round: round, Est: est})
		sup := newTally(r.part.N())
		for _, pm := range r.pending[cur] {
			sup.add(r.part, pm.from, pm.est)
		}
		delete(r.pending, cur)
		for !sup.covers.IsMajority() {
			if v, ok := r.binDecided[key]; ok {
				return v, nil
			}
			if _, ok := r.slotDecided[slot]; ok {
				// The whole slot is already settled; the instance outcome
				// no longer matters.
				return model.Bot, nil
			}
			msg, ok := r.net.Receive(r.id)
			if r.h.Killed() {
				// A timed crash struck while waiting: halt before acting on
				// whatever was (or was not) received.
				return model.Bot, &outcome{status: sim.StatusCrashed, log: r.log, rounds: r.globalRound}
			}
			if !ok {
				return model.Bot, &outcome{status: sim.StatusBlocked, log: r.log, rounds: r.globalRound}
			}
			r.handle(msg, cur, sup)
		}
		if v, ok := r.binDecided[key]; ok {
			return v, nil
		}
		if _, ok := r.slotDecided[slot]; ok {
			return model.Bot, nil
		}

		s := r.commonBit(slot, inst, round)
		r.ctr.ObserveRound(int64(r.globalRound))
		if v, ok := sup.majority(); ok {
			est = v
			if s == v {
				r.binDecided[key] = v
				r.ctr.AddDecideMsgs(int64(r.part.N()))
				r.net.Broadcast(r.id, binDecideMsg{Slot: slot, Inst: inst, Val: v})
				return v, nil
			}
		} else {
			est = s
		}
	}
}

// clusterPropose runs the cluster consensus for (slot, inst, round).
func (r *replica) clusterPropose(slot, inst, round int, v model.Value) model.Value {
	out := r.cons.Propose(slot*10_000_000+inst*10_000+round, 1, v)
	r.ctr.AddConsInvocations(1)
	return out
}

// decideSlot settles one slot: broadcast and append.
func (r *replica) decideSlot(slot int, val string) {
	if _, ok := r.slotDecided[slot]; !ok {
		r.slotDecided[slot] = val
		r.ctr.AddDecideMsgs(int64(r.part.N()))
		r.net.Broadcast(r.id, slotDecideMsg{Slot: slot, Val: val})
	}
}

// agreeSlot drives one slot's multivalued reduction to a decision.
func (r *replica) agreeSlot(slot int, proposal string) (string, *outcome) {
	// URB-broadcast this replica's proposal for the slot.
	r.net.Broadcast(r.id, propMsg{Slot: slot, Origin: r.id, Val: proposal})
	r.delivered[[2]int{slot, int(r.id)}] = proposal

	for inst := 0; inst < r.maxInst; inst++ {
		if v, ok := r.slotDecided[slot]; ok {
			return v, nil
		}
		target := model.ProcID(inst % r.part.N())
		// Input rule: support a delivered target — but on the first cycle
		// only targets with a real command, so no-ops win a slot only when
		// no delivered proposal carries a command (the second cycle lifts
		// the restriction to guarantee progress).
		cycle := inst / r.part.N()
		input := model.Zero
		if v, ok := r.delivered[[2]int{slot, int(target)}]; ok && (cycle >= 1 || v != NoOp) {
			input = model.One
		}
		dec, fin := r.binaryInstance(slot, inst, input)
		if fin != nil {
			return "", fin
		}
		if v, ok := r.slotDecided[slot]; ok {
			return v, nil
		}
		if dec != model.One {
			continue
		}
		// Wait for the guaranteed URB delivery of the winner's proposal.
		for {
			if v, ok := r.delivered[[2]int{slot, int(target)}]; ok {
				r.decideSlot(slot, v)
				return v, nil
			}
			if v, ok := r.slotDecided[slot]; ok {
				return v, nil
			}
			msg, ok := r.net.Receive(r.id)
			if r.h.Killed() {
				return "", &outcome{status: sim.StatusCrashed, log: r.log, rounds: r.globalRound}
			}
			if !ok {
				return "", &outcome{status: sim.StatusBlocked, log: r.log, rounds: r.globalRound}
			}
			r.handle(msg, posKey{slot: slot, inst: r.maxInst + 1}, nil)
		}
	}
	return "", &outcome{status: sim.StatusBlocked, log: r.log, rounds: r.globalRound}
}

// run processes all slots in order.
func (r *replica) run() outcome {
	for slot := 0; slot < r.slots; slot++ {
		proposal := NoOp
		if len(r.queue) > 0 {
			proposal = r.queue[0]
		}
		val, fin := r.agreeSlot(slot, proposal)
		if fin != nil {
			return *fin
		}
		r.log = append(r.log, val)
		if len(r.queue) > 0 && val == r.queue[0] {
			r.queue = r.queue[1:] // own command committed; advance
		}
	}
	return outcome{status: sim.StatusDecided, log: r.log, rounds: r.globalRound}
}

// Run executes one replicated-log instance.
func Run(cfg Config) (*Result, error) {
	if cfg.Partition == nil {
		return nil, fmt.Errorf("%w: nil partition", ErrBadConfig)
	}
	n := cfg.Partition.N()
	if len(cfg.Commands) != n {
		return nil, fmt.Errorf("%w: %d command queues for %d replicas", ErrBadConfig, len(cfg.Commands), n)
	}
	if cfg.Slots < 1 {
		return nil, fmt.Errorf("%w: need at least one slot", ErrBadConfig)
	}

	var ctr metrics.Counters
	var nw *netsim.Network
	arrays := make([]*consensusobj.Array, cfg.Partition.M())
	for x := range arrays {
		arrays[x] = consensusobj.NewArray()
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
	}, n, driver.StandardNet(&nw, n, uint64(cfg.Seed)^0x1e7_dead_beef, &ctr, cfg.MinDelay, cfg.MaxDelay, cfg.NetOptions...),
		func(i int, h *driver.Handle) {
			id := model.ProcID(i)
			r := &replica{
				id:          id,
				part:        cfg.Partition,
				net:         nw,
				cons:        arrays[cfg.Partition.ClusterOf(id)],
				seed:        cfg.Seed,
				sched:       cfg.Crashes,
				ctr:         &ctr,
				h:           h,
				maxRnd:      maxRnd,
				queue:       append([]string(nil), cfg.Commands[i]...),
				slots:       cfg.Slots,
				maxInst:     4 * n,
				delivered:   make(map[[2]int]string),
				binDecided:  make(map[[2]int]model.Value),
				slotDecided: make(map[int]string),
				pending:     make(map[posKey][]pendingMsg),
			}
			outcomes[i] = r.run()
		})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Replicas:         make([]ReplicaResult, n),
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
		res.Replicas[i] = ReplicaResult{Status: o.status, Log: o.log, Rounds: o.rounds}
	}
	return res, nil
}
