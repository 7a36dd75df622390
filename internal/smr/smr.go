// Package smr builds a replicated log (state-machine-replication core) on
// top of the hybrid communication model: a sequence of log slots, each
// decided by the multivalued-over-binary reduction running the paper's
// Algorithm 3 instances — so the log inherits the one-for-all fault
// tolerance (a majority-cluster survivor keeps appending alone). The
// replica machine is the repository's one implementation of that
// reduction: multivalued consensus runs on it as a one-slot log
// (RunVariant).
//
// Each replica proposes the front of its command queue for the next
// undecided slot (or the empty no-op); the slot's consensus picks exactly
// one proposal; all live replicas append the same value. Agreement across
// the whole log follows from per-slot agreement plus in-order processing.
//
// A replica is an inline handler reactor (driver.RunHandlers, DESIGN.md
// §6): its resumable state is its position in the slot → instance → round
// loops, and each invocation drains the inbox and runs the loops up to the
// next wait — a round's tally covering a majority, or the URB delivery of
// an instance winner's proposal. All
// protocol messages are tagged by (slot, instance, round) so replicas at
// different log positions never confuse each other's traffic; per-slot and
// per-instance DECIDE short-circuits let stragglers catch up.
package smr

import (
	"fmt"

	"allforone/internal/coin"
	"allforone/internal/consensusobj"
	"allforone/internal/driver"
	"allforone/internal/failures"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// NoOp is the value a slot decides when the winning proposer had no
// pending command.
const NoOp = ""

// Variant is what tells one use of the replica machine from another: the
// replicated log (the registry's "smr") and multivalued consensus, a
// one-slot log.
type Variant struct {
	// NetSalt is xored into the seed for the network's RNG stream.
	NetSalt uint64
	// SlotMix and InstMix draw the common coin of (slot, instance, round)
	// from seed ^ (slot+1)·SlotMix ^ (inst+1)·InstMix.
	SlotMix, InstMix uint64
	// SupportNoOps lets the first cycle of instances support a target
	// whose proposal is the no-op; otherwise only the second cycle does.
	SupportNoOps bool
}

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
	sim.Engine
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

// slotRow is what a replica has learnt of one log slot.
type slotRow struct {
	props   []proposal    // by origin: the URB-delivered proposals
	bin     []model.Value // by instance: the binary decisions, Bot while open
	decided bool
	val     string // the slot's decision, once decided
}

// binOf returns instance inst's binary decision, Bot while open. A row's
// decisions grow as far as its instances run: within its carved room for 4n
// of them, and past it only under a larger instance cap.
func (row *slotRow) binOf(inst int) *model.Value {
	for len(row.bin) <= inst {
		row.bin = append(row.bin, model.Bot)
	}
	return &row.bin[inst]
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
	v       Variant
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
	pending     map[posKey][]model.Vote
	globalRound int

	stage             int
	slot, inst, round int
	est               model.Value
	tally             *model.Quorum
}

// row returns the replica's row for slot. Rows are allocated a chunk at a
// time as messages first name their slots, so growing never copies a row
// and a row's address is stable.
func (r *replica) row(slot int) *slotRow {
	for c := slot / r.chunk; len(r.rows) <= c; {
		n, k := r.part.N(), r.chunk
		rows := make([]slotRow, k)
		props := make([]proposal, k*n)
		bin := make([]model.Value, k*4*n) // room for 4n instances a row; binOf fills it
		for i := range rows {
			rows[i].props = props[i*n : (i+1)*n : (i+1)*n]
			rows[i].bin = bin[i*4*n : i*4*n : (i+1)*4*n]
		}
		r.rows = append(r.rows, rows)
	}
	return &r.rows[slot/r.chunk][slot%r.chunk]
}

// commonBit is the shared coin for (slot, instance, round).
func (r *replica) commonBit(slot, inst, round int) model.Value {
	mix := uint64(r.seed) ^ (uint64(slot+1) * r.v.SlotMix) ^ (uint64(inst+1) * r.v.InstMix)
	return coin.NewSplitMixCommon(mix).Bit(round)
}

// consPos is the position in the cluster's CONS array of (slot, instance,
// round): one object per instance round, distinct for every instance below
// the cap maxInst and every round.
func consPos(slot, inst, round, maxInst int) (int, int) {
	return slot*maxInst + inst, round
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
func (r *replica) handle(msg netsim.Message, cur posKey, sup *model.Quorum) {
	switch m := msg.Payload.(type) {
	case propMsg:
		r.urbDeliver(m)
	case slotDecideMsg:
		if row := r.row(m.Slot); !row.decided {
			row.decided, row.val = true, m.Val
			r.net.Broadcast(r.id, m) // relay so every replica learns it
		}
	case binDecideMsg:
		if bin := r.row(m.Slot).binOf(m.Inst); *bin == model.Bot {
			*bin = m.Val
		}
	case instMsg:
		k := posKey{slot: m.Slot, inst: m.Inst, round: m.Round}
		switch {
		case k == cur && sup != nil:
			sup.Add(msg.From, m.Est)
		case cur.less(k):
			r.pending[k] = append(r.pending[k], model.Vote{From: msg.From, Est: m.Est})
		}
	}
}

// finish records the outcome; React returns its result, retiring the
// replica.
func (r *replica) finish(status sim.Status) bool {
	r.store.Status, r.store.Rounds = status, r.globalRound
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
			r.handle(msg, posKey{slot: r.slot, inst: r.inst, round: r.round}, r.tally)
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
	// Input rule: support a delivered target — but, unless the variant
	// supports no-ops, on the first cycle only targets with a real command,
	// so no-ops win a slot only when no delivered proposal carries a command
	// (the second cycle lifts the restriction to guarantee progress).
	n := r.part.N()
	input := model.Zero
	if p := row.props[r.inst%n]; p.ok && (r.v.SupportNoOps || r.inst >= n || p.val != NoOp) {
		input = model.One
	}
	if v := *row.binOf(r.inst); v != model.Bot {
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
	x, y := consPos(r.slot, r.inst, r.round, r.maxInst)
	r.est = r.cons.Propose(x, y, r.est)
	r.ctr.AddConsInvocations(1)
	r.net.Broadcast(r.id, instMsg{Slot: r.slot, Inst: r.inst, Round: r.round, Est: r.est})
	cur := posKey{slot: r.slot, inst: r.inst, round: r.round}
	r.tally.Reset()
	for _, vote := range r.pending[cur] {
		r.tally.Add(vote.From, vote.Est)
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
	switch v := *row.binOf(r.inst); {
	case v != model.Bot:
		r.instanceDecided(v)
	case row.decided:
		// The whole slot is already settled; the instance outcome no
		// longer matters.
		r.commit(row.val)
	case !r.tally.Covered():
		return false
	default:
		s := r.commonBit(r.slot, r.inst, r.round)
		r.ctr.ObserveRound(int64(r.globalRound))
		v, ok := r.tally.Majority()
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
	switch p := row.props[r.inst%r.part.N()]; {
	case p.ok && !row.decided:
		row.decided, row.val = true, p.val
		r.ctr.AddDecideMsgs(int64(r.part.N()))
		r.net.Broadcast(r.id, slotDecideMsg{Slot: r.slot, Val: p.val})
	case !row.decided:
		return false
	}
	r.commit(row.val)
	return true
}

// commit appends the slot's decision to the log, advances the queue past an
// own committed command, and moves to the next slot.
func (r *replica) commit(val string) {
	r.store.Log = append(r.store.Log, val)
	if len(r.queue) > 0 && val == r.queue[0] {
		r.queue = r.queue[1:]
	}
	r.slot, r.stage = r.slot+1, atSlot
}

// logVariant is the replicated log.
var logVariant = Variant{
	NetSalt: 0x1e7_dead_beef,
	SlotMix: 0xbf58_476d_1ce4_e5b9,
	InstMix: 0x94d0_49bb_1331_11eb,
}

// RunVariant executes the replica machine as variant v describes on a
// registry-validated scenario with a command workload: its partition, one
// command queue per replica, its slot count, Bounds.MaxInstances as each
// slot's binary-instance cap (0 = 4n) and Bounds.MaxRounds as each binary
// instance's round cap (0 = 1000). Crash points are consulted at binary
// round starts, with Round counting rounds globally across slots.
func RunVariant(sc *protocol.Scenario, v Variant) (*Result, error) {
	setup, err := sc.Setup()
	if err != nil {
		return nil, err
	}
	part, cmds, slots := sc.Topology.Partition, sc.Workload.Commands, sc.Workload.Slots
	n := part.N()
	var ctr metrics.Counters
	var nw *netsim.Network
	arrays := consensusobj.NewArrays(part.M())
	maxRnd := sc.Bounds.MaxRounds
	if maxRnd <= 0 {
		maxRnd = 1000
	}
	maxInst := sc.Bounds.MaxInstances
	if maxInst <= 0 {
		maxInst = 4 * n
	}

	res := &Result{Replicas: make([]ReplicaResult, n)}
	tallies := model.NewQuorums(part, n)
	replicas := make([]replica, n)
	out, err := driver.RunHandlers(driver.Config{
		MaxVirtualTime: setup.MaxVirtualTime,
		MaxSteps:       setup.MaxSteps,
		Crashes:        setup.Crashes,
	}, n, driver.StandardNet(&nw, n, uint64(setup.Seed)^v.NetSalt, &ctr, 0, 0, setup.NetOption),
		func(i int, h *driver.Handle) driver.Reactor {
			id := model.ProcID(i)
			replicas[i] = replica{
				id:      id,
				part:    part,
				net:     nw,
				cons:    &arrays[part.ClusterOf(id)],
				seed:    setup.Seed,
				v:       v,
				sched:   setup.Crashes,
				ctr:     &ctr,
				h:       h,
				store:   &res.Replicas[i],
				maxRnd:  maxRnd,
				queue:   cmds[i], // only resliced, never written
				slots:   slots,
				maxInst: maxInst,
				chunk:   min(slots, rowChunk),
				pending: make(map[posKey][]model.Vote),
				tally:   &tallies[i],
			}
			return &replicas[i]
		})
	if err != nil {
		return nil, err
	}
	res.Metrics = ctr.Read()
	res.Engine = out
	return res, nil
}
