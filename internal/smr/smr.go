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
// A replica is an inline handler reactor (driver.RunHandlers, DESIGN.md
// §11) and has no coroutine form: its resumable state is its position in
// the slot → instance → round loops, and each invocation drains the inbox
// and runs the loops up to the next wait — a round's tally covering a
// majority, or the URB delivery of an instance winner's proposal. All
// protocol messages are tagged by (slot, instance, round) so replicas at
// different log positions never confuse each other's traffic; per-slot and
// per-instance DECIDE short-circuits let stragglers catch up.
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

// slotRow is what a replica has learnt of one log slot.
type slotRow struct {
	props   []proposal    // by origin: the URB-delivered proposals
	bin     []model.Value // by instance: the binary decisions, Bot while open
	decided bool
	val     string // the slot's decision, once decided
}

// proposal is one origin's proposal for a slot; ok once it was delivered.
type proposal struct {
	val string
	ok  bool
}

// rowChunk is how many slot rows a replica allocates at once (fewer when
// the log is shorter).
const rowChunk = 32

// Stages of a replica's position in its slot → instance → round loops.
const (
	unstarted   = iota // before the first invocation
	atSlot             // top of a slot: propose the queue's front
	atInst             // top of an instance of the slot's reduction
	atRound            // top of a binary round
	collecting         // the round's tally does not cover a majority yet
	awaitingURB        // the instance decided One; the winner's proposal is not delivered yet
)

// replica is one log replica, a driver.Reactor. Its resumable state is its
// stage and position (slot, inst, round) in the loops, the open round's
// estimate and tally. Every step happens in the loops' statement order,
// however invocations split the run, so the network's RNG stream and the
// (at,seq) order follow from it.
type replica struct {
	id      model.ProcID
	part    *model.Partition
	net     *netsim.Network
	cons    *consensusobj.Array
	seed    int64
	sched   *failures.Schedule
	ctr     *metrics.Counters
	h       *driver.Handle // the engine's abort/kill state
	store   *ReplicaResult // this replica's slot of the Result
	maxRnd  int
	queue   []string
	slots   int
	maxInst int
	chunk   int // rows per allocation

	rows        [][]slotRow // chunks of rows, by slot
	pending     map[posKey][]pendingMsg
	log         []string
	globalRound int

	stage             int
	slot, inst, round int
	est               model.Value
	tally             tally
}

// row returns the replica's row for slot. Rows are allocated a chunk at a
// time as messages first name their slots, so growing never copies a row
// and a row's address is stable.
func (r *replica) row(slot int) *slotRow {
	for c := slot / r.chunk; len(r.rows) <= c; {
		n, k := r.part.N(), r.chunk
		rows := make([]slotRow, k)
		props := make([]proposal, k*n)
		bin := make([]model.Value, k*r.maxInst)
		for i := range bin {
			bin[i] = model.Bot
		}
		for i := range rows {
			rows[i].props = props[i*n : (i+1)*n : (i+1)*n]
			rows[i].bin = bin[i*r.maxInst : (i+1)*r.maxInst : (i+1)*r.maxInst]
		}
		r.rows = append(r.rows, rows)
	}
	return &r.rows[slot/r.chunk][slot%r.chunk]
}

// commonBit is the shared coin for (slot, instance, round).
func (r *replica) commonBit(slot, inst, round int) model.Value {
	mix := uint64(r.seed) ^ (uint64(slot+1) * 0xbf58_476d_1ce4_e5b9) ^ (uint64(inst+1) * 0x94d0_49bb_1331_11eb)
	return coin.NewSplitMixCommon(mix).Bit(round)
}

// urbDeliver forwards then records a proposal (uniformity discipline).
func (r *replica) urbDeliver(m propMsg) {
	p := &r.row(m.Slot).props[m.Origin]
	if p.ok {
		return
	}
	r.net.Broadcast(r.id, m)
	*p = proposal{val: m.Val, ok: true}
}

// handle dispatches one message; cur/sup describe the replica's current
// collection point (sup nil when not collecting).
func (r *replica) handle(msg netsim.Message, cur posKey, sup *tally) {
	switch m := msg.Payload.(type) {
	case propMsg:
		r.urbDeliver(m)
	case slotDecideMsg:
		if row := r.row(m.Slot); !row.decided {
			row.decided, row.val = true, m.Val
			r.net.Broadcast(r.id, m) // relay so every replica learns it
		}
	case binDecideMsg:
		if bin := &r.row(m.Slot).bin[m.Inst]; *bin == model.Bot {
			*bin = m.Val
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

// tally is a round's supporter accounting: the cluster closures of the
// senders of each value, and of all senders. A replica owns one, carved by
// model.NewProcSets and cleared at every round start.
type tally struct {
	byVal  [2]model.ProcSet
	covers model.ProcSet
}

func newTally(n int) tally {
	sets := model.NewProcSets(n, 3)
	return tally{byVal: [2]model.ProcSet{sets[0], sets[1]}, covers: sets[2]}
}

func (t *tally) clear() {
	t.byVal[0].Clear()
	t.byVal[1].Clear()
	t.covers.Clear()
}

func (t *tally) add(part *model.Partition, sender model.ProcID, v model.Value) {
	closure := part.Cluster(sender)
	t.byVal[v].UnionInto(closure)
	t.covers.UnionInto(closure)
}

func (t *tally) majority() (model.Value, bool) {
	for _, v := range [...]model.Value{model.Zero, model.One} {
		if t.byVal[v].IsMajority() {
			return v, true
		}
	}
	return model.Bot, false
}

// finish records the outcome; React returns its result, retiring the
// replica.
func (r *replica) finish(status sim.Status) bool {
	*r.store = ReplicaResult{Status: status, Log: r.log, Rounds: r.globalRound}
	return true
}

// stop ends the replica where it waits: crashed if a timed crash struck it,
// blocked otherwise.
func (r *replica) stop() bool {
	if r.h.Killed() {
		return r.finish(sim.StatusCrashed)
	}
	return r.finish(sim.StatusBlocked)
}

// React runs one invocation: advance the loops, draining every deliverable
// message at a wait until the wait is over, up to the next wait whose
// condition does not hold yet.
func (r *replica) React(aborted bool) bool {
	if aborted {
		if r.stage == unstarted {
			return true // the run ended before this replica took a step
		}
		return r.stop() // it waits with a drained inbox
	}
	if r.stage == unstarted {
		r.stage = atSlot
	}
	for {
		var done, waiting bool
		switch r.stage {
		case atSlot:
			done = r.openSlot()
		case atInst:
			done = r.openInstance()
		case atRound:
			done = r.openRound()
		case collecting:
			waiting = !r.collected()
		case awaitingURB:
			waiting = !r.urbDelivered()
		}
		if done {
			return true
		}
		if !waiting {
			continue
		}
		msg, ok, closed := r.net.ReceiveNow(r.id)
		if r.h.Killed() || (!ok && closed) {
			// A timed crash halts the replica before it acts on what it
			// received; a closed, drained inbox leaves it blocked.
			return r.stop()
		}
		if !ok {
			return false // inbox drained; wait for the next wake
		}
		if r.stage == collecting {
			r.handle(msg, posKey{slot: r.slot, inst: r.inst, round: r.round}, &r.tally)
		} else {
			r.handle(msg, posKey{slot: r.slot, inst: r.maxInst + 1}, nil)
		}
	}
}

// openSlot starts the next slot by URB-broadcasting the front of the queue,
// or finishes the replica once every slot is decided.
func (r *replica) openSlot() bool {
	if r.slot == r.slots {
		return r.finish(sim.StatusDecided)
	}
	val := NoOp
	if len(r.queue) > 0 {
		val = r.queue[0]
	}
	r.net.Broadcast(r.id, propMsg{Slot: r.slot, Origin: r.id, Val: val})
	r.row(r.slot).props[r.id] = proposal{val: val, ok: true}
	r.inst, r.stage = 0, atInst
	return false
}

// openInstance starts instance inst of the slot's reduction, supporting its
// target in the input rule, unless the slot or the instance is already
// decided; after the last instance the replica is blocked.
func (r *replica) openInstance() bool {
	if r.inst == r.maxInst {
		return r.finish(sim.StatusBlocked)
	}
	row := r.row(r.slot)
	if row.decided {
		r.commit(row.val)
		return false
	}
	// Input rule: support a delivered target — but on the first cycle only
	// targets with a real command, so no-ops win a slot only when no
	// delivered proposal carries a command (the second cycle lifts the
	// restriction to guarantee progress).
	n := r.part.N()
	input := model.Zero
	if p := row.props[r.inst%n]; p.ok && (r.inst >= n || p.val != NoOp) {
		input = model.One
	}
	if v := row.bin[r.inst]; v != model.Bot {
		r.instanceDecided(v)
		return false
	}
	r.est, r.round, r.stage = input, 0, atRound
	return false
}

// openRound runs a binary round's start: its crash and bound checks, the
// cluster consensus, the broadcast of the estimate and the replay of the
// estimates that arrived early. It reports whether the replica finished.
func (r *replica) openRound() bool {
	r.round++
	r.globalRound++
	switch {
	case r.h.Killed():
		return r.finish(sim.StatusCrashed)
	case r.h.Aborted() || (r.maxRnd > 0 && r.round > r.maxRnd):
		return r.finish(sim.StatusBlocked)
	case r.sched.ShouldCrash(r.id, failures.Point{Round: r.globalRound, Phase: 1, Stage: failures.StageRoundStart}):
		return r.finish(sim.StatusCrashed)
	}
	r.est = r.cons.Propose(r.slot*10_000_000+r.inst*10_000+r.round, 1, r.est)
	r.ctr.AddConsInvocations(1)
	r.net.Broadcast(r.id, instMsg{Slot: r.slot, Inst: r.inst, Round: r.round, Est: r.est})
	cur := posKey{slot: r.slot, inst: r.inst, round: r.round}
	r.tally.clear()
	for _, pm := range r.pending[cur] {
		r.tally.add(r.part, pm.from, pm.est)
	}
	delete(r.pending, cur)
	r.stage = collecting
	return false
}

// collected reports whether the round's wait is over: the instance or the
// slot was decided meanwhile, or the tally covers a majority and the coin
// settles the round.
func (r *replica) collected() bool {
	row := r.row(r.slot)
	switch v := row.bin[r.inst]; {
	case v != model.Bot:
		r.instanceDecided(v)
	case row.decided:
		// The whole slot is already settled; the instance outcome no
		// longer matters.
		r.commit(row.val)
	case !r.tally.covers.IsMajority():
		return false
	default:
		s := r.commonBit(r.slot, r.inst, r.round)
		r.ctr.ObserveRound(int64(r.globalRound))
		v, ok := r.tally.majority()
		switch {
		case !ok:
			r.est, r.stage = s, atRound
		case s != v:
			r.est, r.stage = v, atRound
		default:
			row.bin[r.inst] = v
			r.ctr.AddDecideMsgs(int64(r.part.N()))
			r.net.Broadcast(r.id, binDecideMsg{Slot: r.slot, Inst: r.inst, Val: v})
			r.instanceDecided(v)
		}
	}
	return true
}

// instanceDecided moves on from an instance that decided dec: to the slot's
// decision if it arrived meanwhile, the next instance, or the wait for the
// winner's proposal.
func (r *replica) instanceDecided(dec model.Value) {
	switch row := r.row(r.slot); {
	case row.decided:
		r.commit(row.val)
	case dec != model.One:
		r.inst, r.stage = r.inst+1, atInst
	default:
		r.stage = awaitingURB
	}
}

// urbDelivered reports whether the wait for the guaranteed URB delivery of
// the winner's proposal is over, deciding the slot if it is.
func (r *replica) urbDelivered() bool {
	row := r.row(r.slot)
	if p := row.props[r.inst%r.part.N()]; p.ok {
		if !row.decided {
			row.decided, row.val = true, p.val
			r.ctr.AddDecideMsgs(int64(r.part.N()))
			r.net.Broadcast(r.id, slotDecideMsg{Slot: r.slot, Val: p.val})
		}
		r.commit(p.val)
		return true
	}
	if row.decided {
		r.commit(row.val)
		return true
	}
	return false
}

// commit appends the slot's decision to the log, advances the queue past an
// own committed command, and moves to the next slot.
func (r *replica) commit(val string) {
	r.log = append(r.log, val)
	if len(r.queue) > 0 && val == r.queue[0] {
		r.queue = r.queue[1:]
	}
	r.slot, r.stage = r.slot+1, atSlot
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

	res := &Result{Replicas: make([]ReplicaResult, n)}
	out, err := driver.RunHandlers(driver.Config{
		MaxVirtualTime: cfg.MaxVirtualTime,
		MaxSteps:       cfg.MaxSteps,
		Crashes:        cfg.Crashes,
	}, n, driver.StandardNet(&nw, n, uint64(cfg.Seed)^0x1e7_dead_beef, &ctr, cfg.MinDelay, cfg.MaxDelay, cfg.NetOptions...),
		func(i int, h *driver.Handle) driver.Reactor {
			id := model.ProcID(i)
			return &replica{
				id:      id,
				part:    cfg.Partition,
				net:     nw,
				cons:    arrays[cfg.Partition.ClusterOf(id)],
				seed:    cfg.Seed,
				sched:   cfg.Crashes,
				ctr:     &ctr,
				h:       h,
				store:   &res.Replicas[i],
				maxRnd:  maxRnd,
				queue:   append([]string(nil), cfg.Commands[i]...),
				slots:   cfg.Slots,
				maxInst: 4 * n,
				chunk:   min(cfg.Slots, rowChunk),
				pending: make(map[posKey][]pendingMsg),
				tally:   newTally(n),
			}
		})
	if err != nil {
		return nil, err
	}
	res.Metrics = ctr.Read()
	res.Elapsed = out.Elapsed
	res.VirtualTime = out.VirtualTime
	res.Steps = out.Steps
	res.Quiesced = out.Quiesced
	res.DeadlineExceeded = out.DeadlineExceeded
	res.StepsExceeded = out.StepsExceeded
	res.Sched = out.Sched
	return res, nil
}
