// Package vclock implements a deterministic discrete-event scheduler — the
// virtual-time execution engine underneath the simulated network and the
// consensus runtimes.
//
// The scheduler owns a priority structure of timestamped events (ties broken
// by schedule order) and a set of cooperatively stepped processes. Exactly
// one piece of code runs at any instant: either the scheduler's event loop
// or a single process body. Because every interleaving decision is taken by
// the event queue — never by the Go runtime — a run is a pure function of
// its inputs: same configuration, same event order, same result, bit for
// bit.
//
// Processes come in two body forms sharing one wake/park discipline:
//
//   - coroutines (Spawn): the body is a straight-line function on its own
//     goroutine; every step costs two unbuffered-channel rendezvous through
//     the execution token. Convenient for bodies that block mid-algorithm.
//   - inline handlers (SpawnHandler): the body is a state machine invoked
//     directly under the scheduler's execution token — zero rendezvous,
//     zero goroutines. Each wake is one plain function call, which is what
//     makes the Θ(n²) all-to-all exchange pattern affordable at large n
//     (DESIGN.md §11).
//
// Both forms go through the same runnable FIFO, so wakes fire in the same
// (at, seq)-driven order regardless of body form, and quiescence/abort
// semantics are identical.
//
// # Tiered timer wheel
//
// Events are stored in a tiered structure sized for the all-to-all exchange
// pattern (Θ(n²) deliveries per round, DESIGN.md §10):
//
//   - a near-future timer wheel of wheelSlots buckets, each slotWidth of
//     virtual time wide. Scheduling into the wheel is an O(1) append. When
//     the clock reaches a bucket it becomes the open slot and is ordered
//     once — counting passes over its events' instants, not a comparison
//     sort — after which a pop is O(1); events scheduled into the open slot
//     itself go to a small min-heap beside it;
//   - a far-future overflow min-heap for events past the wheel horizon.
//     As the clock advances, overflow events whose instant enters the
//     horizon cascade into their wheel bucket (each event cascades at most
//     once, so cascading is O(1) amortized).
//
// The pop order is exactly the global (at, seq) order, so the structure is
// invisible to every replay and determinism contract. SchedulerStats counts
// events scheduled, wheel cascades, and the deepest bucket observed.
//
// # Window expansion
//
// Large topologies (WithShards; the driver engages it at n ≥ 256) expand the
// sends of one flush window — the per-message delay draws, key packing,
// bucketing and payload construction behind SendAll and BurstSend — shard by
// shard at the flush point, on the token, into the one wheel (DESIGN.md §12):
//
//   - work is partitioned by SHARD, a fixed function of the topology: shard
//     s is a recipient stripe that always draws from its own RNG stream;
//   - a job (Job) only registers at SubmitSealed and keeps accumulating
//     content; at the flush point every registered job is sealed and its
//     sequence block reserved, so every expanded event's (at, seq) key is
//     fixed by the job's block layout, not by when the expansion runs;
//   - flush points are chosen by the lookahead rule in next, which refuses
//     to pop any event that a registered job could still precede.
//
// The scheduler starts no goroutine of its own: every event Fire, handler
// invocation and expansion runs under the single execution token.
//
// Virtual time is measured in nanoseconds (Time is directly convertible
// from time.Duration) but no real time ever passes: delivering a message
// "4ms later" costs one bucket append. Runs therefore execute as fast as
// the hardware allows, and a run whose processes wait for messages that can
// never come terminates the moment the event queue goes quiescent.
//
// Termination of Run is classified by Outcome:
//   - all coroutines finished → a normal run;
//   - quiescence (live coroutines, but nothing runnable and no pending
//     events) → the execution is stuck forever, e.g. a consensus liveness
//     condition does not hold;
//   - the virtual deadline or the event budget was exceeded.
//
// On abort the scheduler resumes every parked coroutine with Park() = false
// so it can record a "blocked" outcome and unwind; Run returns only after
// every coroutine has finished.
package vclock

import (
	"fmt"
	"slices"
	"sync"
)

// Time is a virtual instant, in nanoseconds since the start of the run.
// It converts directly to and from time.Duration.
type Time int64

// maxTime is the sentinel "no bound" instant (Scheduler.earliest when idle).
const maxTime = Time(1<<63 - 1)

// Event is a schedulable callback. Implementations that are pointer-shaped
// (pooled structs, funcs) ride the scheduler without a per-event
// allocation — the zero-alloc delivery path of the simulated network
// schedules pooled message-delivery events through AtEvent/AfterEvent.
type Event interface {
	// Fire runs the event. It executes under the scheduler's execution
	// token, at the event's virtual instant.
	Fire()
}

// eventFunc adapts a plain func() to Event. Func values are pointer-shaped,
// so the conversion does not allocate.
type eventFunc func()

// Fire runs the wrapped function.
func (f eventFunc) Fire() { f() }

// event is one scheduled callback.
type event struct {
	at  Time
	seq uint64 // schedule order; the deterministic tie-breaker
	ev  Event
}

// before reports whether e precedes o in the global (at, seq) total order.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// pushEvent adds ev to the min-heap h (ordered by before).
func pushEvent(h *[]event, ev event) {
	s := *h
	s = append(s, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

// popEvent removes and returns the minimum event of heap h.
func popEvent(h *[]event) event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{}
	s = s[:n]
	siftDown(s, 0)
	*h = s
	return top
}

// siftDown restores the heap property below index i.
func siftDown(s []event, i int) {
	n := len(s)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s[l].before(s[min]) {
			min = l
		}
		if r < n && s[r].before(s[min]) {
			min = r
		}
		if min == i {
			return
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
}

// Timer-wheel geometry. The wheel covers wheelSlots×slotWidth ≈ 4.2ms of
// virtual time ahead of the open slot — wide enough that the delay
// bands every experiment profile draws from (µs to low ms) schedule O(1)
// into the wheel; rarer far-future events (second-scale sleeps, crash
// instants, partition heals) take the overflow heap and cascade in when
// the horizon reaches them.
const (
	slotWidthShift = 14 // log2 of the bucket width: 16384ns ≈ 16µs
	wheelSlots     = 256
	wheelMask      = wheelSlots - 1
)

// slotOf returns the absolute wheel-slot index of a virtual instant.
func slotOf(t Time) int64 { return int64(t) >> slotWidthShift }

// Sharding geometry. The shard count is a fixed function of the topology, so
// shard composition, per-shard RNG streams and per-shard counters are too
// (DESIGN.md §12).
const (
	// NumShards caps the shard count of a sharded scheduler.
	NumShards = 16
	// shardMinProcs is the engagement floor: below it the per-broadcast
	// fan-out is too small for windowed expansion to pay off.
	shardMinProcs = 256
	// shardStripe is the minimum recipients per stripe. Every broadcast
	// becomes one fanout event PER SHARD — each a live pooled object and a
	// wheel entry for its whole delivery window — so thin stripes multiply
	// scheduler churn; wide stripes keep the event count down.
	shardStripe = 128
)

// ShardsFor returns the shard count the driver should configure for an
// n-process topology: 0 (unsharded) below the engagement floor, then the
// largest power of two ≤ NumShards that keeps stripes ≥ shardStripe wide
// (n=256 → 2, n=512 → 4, n=1024 → 8, n≥2048 → 16). It depends on n alone,
// never on the machine.
func ShardsFor(n int) int {
	if n < shardMinProcs {
		return 0
	}
	c := 2
	for c < NumShards && n >= 2*c*shardStripe {
		c *= 2
	}
	return c
}

// SchedulerStats counts the scheduler's internal work — the observability
// surface of the timer wheel. All counts are pure functions of the run's
// inputs, so they replay bit-for-bit and may be compared across runs.
type SchedulerStats struct {
	// EventsScheduled is the total number of events handed to the
	// scheduler (At/After/AtEvent/AfterEvent calls plus shard-expanded
	// events).
	EventsScheduled int64
	// WheelCascades is the number of events migrated from the far-future
	// overflow heap into the wheel as the horizon advanced. Each event
	// cascades at most once.
	WheelCascades int64
	// MaxBucketDepth is the deepest wheel bucket observed: events sharing
	// one slotWidth window of virtual time, late arrivals into the open slot
	// included.
	MaxBucketDepth int64
	// ShardEvents is the number of events inserted by flush expansion
	// (ShardInserter.At; 0 for unsharded runs). A fanout's re-arms are
	// ordinary AtEvent calls and are not counted here.
	ShardEvents int64
	// ExpandJobs is the number of broadcasts expanded at flushes, as the
	// jobs report them at Seal (one per sharded SendAll).
	ExpandJobs int64
	// PoolFlushes is the number of flushes — the points where the token
	// sealed and expanded the registered jobs before popping an event they
	// could have preceded.
	PoolFlushes int64
	// BurstJobs is the number of jobs registered (SubmitSealed calls; one
	// per network per flush window that saw sharded send traffic).
	BurstJobs int64
	// PooledPayloadBytes totals the payload bytes protocol builders
	// constructed at flushes through the per-shard payload pools (reported
	// by expansion jobs via ShardInserter.NotePayloadBytes).
	PooledPayloadBytes int64
	// MaxShardStage is the most events one shard inserted in a single flush
	// — the high-water mark of one shard's share of an expansion window.
	MaxShardStage int64
}

// wheel is the scheduler's tiered timer structure: the open slot (a run
// ordered once, when the slot opened, plus a heap of late arrivals), the
// near-future slot array, and the far-future overflow heap. Every event goes
// through it — AtEvent traffic and a flush's expansion alike — and it keeps
// the two counters that only its own tiers can see.
type wheel struct {
	// Invariants between advances:
	//   - the pending events of slot curSlot are run[i] for i in order — those
	//     the slot held when it opened, left where the bucket had them; order
	//     lists them DESCENDING by (at, seq), so the earliest is its last
	//     element and a pop shortens it — plus late, a min-heap of the events
	//     inserted since;
	//   - slots.buckets[s&wheelMask] holds the events of absolute slot s for
	//     curSlot < s < curSlot+wheelSlots, unsorted; a bucket with no event
	//     is nil;
	//   - overflow holds (as a min-heap) events at or past the horizon —
	//     plus, transiently, events whose slot entered the window since the
	//     last advance; advance() drains those before choosing a bucket;
	//   - wheelCount counts events in slots (excluding run/late/overflow);
	//   - no slice of the wheel holds an event past its length, run none
	//     outside order and a shelved array none at all: pops zero the
	//     vacated entry, and opening a slot takes the bucket's array as run
	//     and shelves the drained run's, so storage can be recycled by
	//     clearing the pending events alone.
	run, late  []event
	order      []uint32   // indices into run
	slots      *slotArray // unsharded: nil until the first bucket insert
	curSlot    int64
	wheelCount int
	overflow   []event

	cascades int64
	maxDepth int64
}

// slotArray is the wheel's near-future bucket array — 6 KB of slice headers
// — plus the shelf: a stack of empty backing arrays. Opening a slot shelves
// the drained run's array, and the first insert into an empty bucket takes
// one off the shelf, so the storage a run keeps follows the buckets in flight
// at once, not 256 times the deepest bucket. An unsharded scheduler borrows
// one from slotArrays at its first bucket insert and hands it back at
// Release, so a short run (the paper's n=7 trials process ~160 events)
// neither zeroes a fresh array nor regrows its buckets.
//
// A sharded scheduler owns its array (WithShards) and drops it with itself.
// Its arrays grow to the depth of a large topology's flush windows — about
// 5 MB in all at n=10000 — and the pool would carry that capacity into
// whichever run drew the array next, or not, as the collector's timing
// decided (sync.Pool empties over two collections).
//
// Clear-on-return invariant: an array in the pool holds 256 nil buckets and
// shelved arrays that contain no event — no Event pointer of a finished run
// stays reachable, and nothing a run does can depend on which array it drew.
type slotArray struct {
	buckets [wheelSlots][]event
	shelf   [][]event // every one of length 0, every entry zero
}

// shelve puts a, whose entries must all be zero, on the shelf.
func (st *slotArray) shelve(a []event) {
	if cap(a) > 0 {
		st.shelf = append(st.shelf, a[:0])
	}
}

// unshelve takes the most recently shelved array off the shelf; nil when the
// shelf is empty.
func (st *slotArray) unshelve() []event {
	n := len(st.shelf) - 1
	if n < 0 {
		return nil
	}
	a := st.shelf[n]
	st.shelf[n] = nil
	st.shelf = st.shelf[:n]
	return a
}

var slotArrays = sync.Pool{New: func() any { return new(slotArray) }}

// detachSlots takes the bucket array off the wheel, with the open slot's run
// shelved on it, dropping the events still waiting in either (the run is over
// or aborted and would never pop them), and returns it in the state the pool
// requires; nil if the wheel holds none.
func (w *wheel) detachSlots() *slotArray {
	st := w.slots
	if st == nil {
		return nil
	}
	w.slots = nil
	if w.wheelCount > 0 {
		for i := range st.buckets {
			clear(st.buckets[i])
			st.shelve(st.buckets[i])
			st.buckets[i] = nil
		}
		w.wheelCount = 0
	}
	clear(w.run)
	st.shelve(w.run)
	w.run, w.order = nil, w.order[:0]
	return st
}

// recycleSlots returns the wheel's bucket array to the pool. Idempotent; a
// later insert borrows a new array.
func (w *wheel) recycleSlots() {
	if st := w.detachSlots(); st != nil {
		slotArrays.Put(st)
	}
}

// insert routes an event to its tier: the open slot's late heap, a wheel
// bucket, or the far-future overflow heap.
func (w *wheel) insert(ev event) {
	slot := slotOf(ev.at)
	switch {
	case slot <= w.curSlot:
		// The open slot — including the defensive clamp for events
		// scheduled by unwinding coroutines after an abort peeked ahead
		// (such events are never popped: the run processes no more events).
		pushEvent(&w.late, ev)
		if d := int64(len(w.order) + len(w.late)); d > w.maxDepth {
			w.maxDepth = d
		}
	case slot < w.curSlot+wheelSlots:
		if w.slots == nil {
			w.slots = slotArrays.Get().(*slotArray)
		}
		b := &w.slots.buckets[slot&wheelMask]
		if *b == nil {
			*b = w.slots.unshelve()
		}
		*b = append(*b, ev)
		w.wheelCount++
		if d := int64(len(*b)); d > w.maxDepth {
			w.maxDepth = d
		}
	default:
		pushEvent(&w.overflow, ev)
	}
}

// advance makes the earliest pending event the head of the open slot, opening
// the next non-empty slot (sortRun orders it, through the scheduler's scratch)
// when the open one has drained — but never a slot past stop: it returns
// false when no event is pending at or before slot stop, and leaves the later
// ones where they are. advance only repositions events between tiers
// (preserving the (at, seq) total order); it never fires one, so peeking is
// side-effect free with respect to the run.
func (w *wheel) advance(scratch *[]uint32, stop int64) bool {
	for {
		// Cascade overflow events whose slot has entered the window. They
		// were beyond the horizon when scheduled; the horizon has moved.
		for len(w.overflow) > 0 && slotOf(w.overflow[0].at) < w.curSlot+wheelSlots {
			ev := popEvent(&w.overflow)
			w.cascades++
			w.insert(ev)
		}
		if len(w.order)+len(w.late) > 0 {
			return true
		}
		if w.wheelCount > 0 {
			// Walk the window to the next non-empty bucket and activate it.
			sl, end := w.curSlot+1, w.curSlot+wheelSlots
			for ; sl < end && len(w.slots.buckets[sl&wheelMask]) == 0; sl++ {
			}
			if sl == end {
				panic("vclock: wheelCount > 0 but no bucket found in window")
			}
			if sl > stop {
				return false
			}
			b := &w.slots.buckets[sl&wheelMask]
			w.curSlot = sl
			w.wheelCount -= len(*b)
			// Every event of the run has been popped, and zeroed: shelve its
			// array for the next bucket that fills, and take the bucket's
			// instead of copying the bucket's events.
			w.slots.shelve(w.run)
			w.run, *b = *b, nil
			w.order = sortRun(w.run, w.order, scratch)
			// Re-enter the loop: the window moved, overflow may cascade.
			continue
		}
		if len(w.overflow) == 0 || slotOf(w.overflow[0].at) > stop {
			return false
		}
		// Wheel empty: jump the window to the earliest far-future event and
		// let the cascade at the top of the loop pull it (and its cohort) in.
		w.curSlot = slotOf(w.overflow[0].at)
	}
}

// sortCrossover is the bucket depth up to which sortRun's insertion pass alone
// orders a bucket; deeper ones pay for two 128-entry histograms first. Read off
// BenchmarkWheelDrain (one wheel, no late inserts, ns per event, insertion
// pass alone against always counting): k=16 37 against 48, k=32 47 against 42.
const sortCrossover = 24

// sortRun orders a bucket that has just become the open slot's run: it returns
// order (reusing its array) listing run's indices descending by (at, seq).
// Every event of a bucket shares its slot, so the low slotWidthShift bits of
// at are its instant: two stable counting passes over 7 bits each order a deep
// bucket by instant — the second filling order back to front, which leaves
// equal instants in the REVERSE of their append order, as a shallow bucket
// starts out. One insertion pass then settles the rest: a linear scan when the
// bucket was appended in seq order (it is, except after a cascade or when a
// flush inserted a lone delivery ahead of its fanout), the whole sort for a
// shallow bucket. Only 4-byte indices move: ordering the 32-byte events
// themselves costs what the heap's sifts did (DESIGN.md §10). scratch is the
// scheduler's one buffer for the passes.
func sortRun(run []event, order []uint32, scratch *[]uint32) []uint32 {
	n := len(run)
	order = slices.Grow(order[:0], n)[:n]
	if n <= sortCrossover {
		for i := range order {
			order[i] = uint32(n - 1 - i)
		}
	} else {
		const digit, mask = slotWidthShift / 2, 1<<(slotWidthShift/2) - 1
		var lo, hi [1 << digit]uint32
		for i := range run {
			lo[run[i].at&mask]++
			hi[run[i].at>>digit&mask]++
		}
		var l, h uint32
		for d := range lo {
			lo[d], l = l, l+lo[d]
			hi[d], h = h, h+hi[d]
		}
		tmp := slices.Grow((*scratch)[:0], n)[:n]
		*scratch = tmp
		for i := range run {
			d := run[i].at & mask
			tmp[lo[d]] = uint32(i)
			lo[d]++
		}
		for _, i := range tmp {
			d := run[i].at >> digit & mask
			hi[d]++
			order[n-int(hi[d])] = i
		}
	}
	for i := 1; i < n; i++ {
		if !run[order[i-1]].before(run[order[i]]) {
			continue
		}
		x, j := order[i], i
		for ; j > 0 && run[order[j-1]].before(run[x]); j-- {
			order[j] = order[j-1]
		}
		order[j] = x
	}
	return order
}

// first returns the open slot's head — advance must have returned true since
// the wheel was last touched — and whether it is the late heap's root rather
// than the run's earliest event.
func (w *wheel) first() (*event, bool) {
	n := len(w.order)
	if n == 0 {
		return &w.late[0], true
	}
	ev := &w.run[w.order[n-1]]
	if len(w.late) > 0 && w.late[0].before(*ev) {
		return &w.late[0], true
	}
	return ev, false
}

// pop removes and returns the open slot's head.
func (w *wheel) pop() event {
	head, late := w.first()
	if late {
		return popEvent(&w.late)
	}
	ev := *head
	*head = event{}
	w.order = w.order[:len(w.order)-1]
	return ev
}

// Process states (both body forms).
const (
	stateRunnable = iota // queued to run
	stateRunning         // currently holding the execution token
	stateParked          // suspended (in Park, or between handler invocations)
	stateDone            // fn returned / Finish was called
)

// Proc is a cooperatively scheduled process — a coroutine (Spawn) or an
// inline handler (SpawnHandler). All its methods must be called from
// scheduler-controlled code: from within a process body (Park, Finish) or
// from event callbacks and other bodies (Wake). The single-token handoff
// makes every such call data-race free without locks.
type Proc struct {
	s       *Scheduler
	name    string
	state   int
	resume  chan bool          // scheduler → proc; false = run aborted (coroutines only)
	handler func(aborted bool) // inline body (handler procs only)
	rewake  bool               // a Wake arrived during the handler's own invocation
}

// Name returns the coroutine's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Park suspends the calling coroutine until another party calls Wake (then
// Park returns true) or the scheduler aborts the run (then false: the
// coroutine must unwind promptly and not Park again). Calling Park from
// outside the coroutine's own fn — in particular from a handler proc's
// body, which has no goroutine to suspend — is a protocol violation.
func (p *Proc) Park() bool {
	if p.handler != nil {
		panic("vclock: Park called on a handler proc")
	}
	s := p.s
	if s.aborted {
		return false
	}
	p.state = stateParked
	s.yield <- struct{}{}
	return <-p.resume
}

// Wake makes a parked process runnable again; it will resume, in FIFO wake
// order, before any further event is processed. Waking a coroutine that is
// not parked is a no-op (the wakeup is not lost: a consumer must re-check
// its condition before parking, and only parks while holding the execution
// token). Waking a handler proc during its own invocation re-queues it for
// one more invocation after the current one returns, so a handler that
// somehow signals itself does not lose the wakeup either.
func (p *Proc) Wake() {
	switch p.state {
	case stateParked:
		p.state = stateRunnable
		p.s.pushRunnable(p)
	case stateRunning:
		if p.handler != nil {
			p.rewake = true
		}
	}
}

// Done reports whether the process has finished (its fn returned, or
// Finish was called).
func (p *Proc) Done() bool { return p.state == stateDone }

// Finish marks a handler proc's execution complete: it will never be
// invoked again, and the run can end without it. It must be called from
// within the handler's own invocation (under the execution token), exactly
// like a coroutine finishing by returning from its fn. Finish is
// idempotent; calling it on a coroutine proc is a protocol violation (a
// coroutine finishes by returning).
func (p *Proc) Finish() {
	if p.handler == nil {
		panic("vclock: Finish called on a coroutine proc")
	}
	if p.state == stateDone {
		return
	}
	p.state = stateDone
	p.s.live--
}

// Outcome reports how a Run ended.
type Outcome struct {
	// Now is the virtual clock at the end of the run.
	Now Time
	// Steps is the number of events processed.
	Steps int64
	// Quiesced is set when live coroutines remained but no event could ever
	// wake them — the virtual-time formulation of "blocked forever".
	Quiesced bool
	// DeadlineExceeded is set when the next event lay beyond the deadline.
	DeadlineExceeded bool
	// StepsExceeded is set when the event budget ran out.
	StepsExceeded bool
	// Stats counts the scheduler's internal work (deterministic: same
	// inputs, same counts).
	Stats SchedulerStats
}

// Aborted reports whether the run was cut short for any reason.
func (o Outcome) Aborted() bool { return o.Quiesced || o.DeadlineExceeded || o.StepsExceeded }

// Job is a unit of schedule-side work a flush expands shard by shard — in
// practice one flush window's sends on one network: their delay draws, key
// packing, bucketing and payload construction (netsim). SubmitSealed only
// registers it; the job keeps accumulating content until the flush point,
// where it is sealed and expanded.
type Job interface {
	// Seal freezes the job's content and returns the size of the sequence
	// block to reserve for it, plus the number of broadcasts it is about to
	// expand (SchedulerStats.ExpandJobs). It runs once, at the flush point,
	// before any ExpandShard call; the job may record whatever flush-time
	// state ExpandShard needs.
	Seal() (seqs uint64, broadcasts int64)
	// ExpandShard inserts shard's share of the job's events through ins. It
	// is called exactly once per shard, with seqBase the first sequence
	// number of the job's block; how the block is divided among shards and
	// events is the job's business. It must not touch any scheduler state,
	// nor any network state of another shard.
	ExpandShard(shard int, seqBase uint64, ins *ShardInserter)
}

// shardTask is a registered job and, once the flush has sealed it, the first
// sequence number of its reserved block.
type shardTask struct {
	job  Job
	base uint64
}

// ShardInserter inserts one shard's expanded events into the wheel during a
// flush. The flush owns it; a job must not retain it past ExpandShard's
// return.
type ShardInserter struct {
	s *Scheduler
	n int64 // events the running shard has inserted in this flush
}

// At schedules ev at instant at with the given sequence number, which the
// caller must take from its job's reserved block (Job.Seal). at must not
// precede the job's declared earliest instant (SubmitSealed).
func (si *ShardInserter) At(at Time, seq uint64, ev Event) {
	s := si.s
	if at < s.now {
		// Defensive: a job's events may not precede its declared earliest,
		// and pops never pass the earliest of the registered jobs without
		// flushing them — so this clamp should never bite; it mirrors
		// AtEvent's "time never flows backwards".
		at = s.now
	}
	s.wheel.insert(event{at: at, seq: seq, ev: ev})
	si.n++
}

// NotePayloadBytes records n bytes of payload the running job built through
// a per-shard payload pool (SchedulerStats.PooledPayloadBytes).
func (si *ShardInserter) NotePayloadBytes(n int64) {
	si.s.stats.PooledPayloadBytes += n
}

// Scheduler is the discrete-event engine. It is NOT safe for concurrent
// use from arbitrary goroutines: Spawn/At/After/Run must be called from the
// goroutine that calls Run, from event callbacks, or from coroutines — all
// of which are serialized by the execution token.
type Scheduler struct {
	now Time
	seq uint64

	wheel   wheel
	scratch []uint32 // sortRun's buffer: the token serialises every activation
	shards  int      // expansion shards (0 = unsharded)

	stats SchedulerStats // all but the wheel's own two counters

	// Window expansion. jobs holds the jobs registered since the last flush,
	// in registration order; earliest lower-bounds the instant of any event
	// they may insert (maxTime when none is registered). Jobs reserve their
	// sequence blocks only at flush — after every event pending by then —
	// which is what the lookahead rule in next rests on. ins is the flush's
	// inserter, kept here so that a flush allocates nothing.
	jobs     []shardTask
	earliest Time
	ins      ShardInserter

	procs    []*Proc
	spawned  int
	live     int
	runnable []*Proc // FIFO; head index below avoids reallocating on pop
	runHead  int

	yield chan struct{} // proc → scheduler: "I parked or finished"

	deadline Time  // 0 = none
	maxSteps int64 // 0 = none
	steps    int64

	aborted bool
	outcome Outcome
}

// Option customizes a Scheduler.
type Option func(*Scheduler)

// WithDeadline aborts the run before processing any event scheduled past
// virtual instant d. Zero means no deadline.
func WithDeadline(d Time) Option {
	return func(s *Scheduler) { s.deadline = d }
}

// WithMaxSteps aborts the run after processing n events — the deterministic
// guard against executions that never converge. Zero means no budget.
func WithMaxSteps(n int64) Option {
	return func(s *Scheduler) { s.maxSteps = n }
}

// WithShards splits the scheduler's window expansion into shards shards (at
// most NumShards): a flush calls every job's ExpandShard once per shard, and
// the network maps each shard to a recipient stripe with its own stream; see
// the package comment. Every shard inserts into the one wheel. Zero shards
// keeps the scheduler unsharded and makes the option a no-op. A sharded
// scheduler owns its bucket array instead of borrowing one (see slotArray).
// Any further argument is ignored; it is accepted, and deprecated, so that
// callers of the old two-argument form WithShards(shards, workers) still
// compile.
func WithShards(shards int, _ ...int) Option {
	return func(s *Scheduler) {
		if shards > 0 {
			s.shards = min(shards, NumShards)
			s.wheel.slots = new(slotArray)
		}
	}
}

// New returns an empty scheduler at virtual time zero.
func New(opts ...Option) *Scheduler {
	s := &Scheduler{yield: make(chan struct{}), earliest: maxTime}
	s.ins.s = s
	for _, o := range opts {
		o(s)
	}
	return s
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Aborted reports whether the run has been aborted (quiescence, deadline,
// or event budget). Coroutines can poll it at convenient checkpoints.
func (s *Scheduler) Aborted() bool { return s.aborted }

// ShardCount returns the number of expansion shards (0 = unsharded).
func (s *Scheduler) ShardCount() int { return s.shards }

// Stats returns the scheduler's work counters so far.
func (s *Scheduler) Stats() SchedulerStats {
	st := s.stats
	st.WheelCascades, st.MaxBucketDepth = s.wheel.cascades, s.wheel.maxDepth
	return st
}

// At schedules fn to run at virtual instant t (clamped to now: virtual time
// never flows backwards). Events at the same instant run in schedule order.
func (s *Scheduler) At(t Time, fn func()) { s.AtEvent(t, eventFunc(fn)) }

// After schedules fn to run d nanoseconds of virtual time from now.
// Negative d is treated as zero.
func (s *Scheduler) After(d Time, fn func()) { s.AfterEvent(d, eventFunc(fn)) }

// AtEvent schedules ev to fire at virtual instant t (clamped to now). It is
// the allocation-free twin of At: a pointer-shaped Event implementation
// (e.g. a pooled message-delivery struct) is stored without boxing.
func (s *Scheduler) AtEvent(t Time, ev Event) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.stats.EventsScheduled++
	s.wheel.insert(event{at: t, seq: s.seq, ev: ev})
}

// AfterEvent schedules ev to fire d nanoseconds of virtual time from now.
func (s *Scheduler) AfterEvent(d Time, ev Event) {
	if d < 0 {
		d = 0
	}
	s.AtEvent(s.now+d, ev)
}

// SubmitSealed registers job for the current flush window. It reserves no
// sequence block here: the job keeps accumulating content until the flush
// point, where Seal freezes it, the block is reserved (after every event
// scheduled in the window, so an expanded arrival tying a pending event's
// instant orders after it), and the job expands. earliest must
// lower-bound the instant of every event the job will EVER insert, including
// content appended after this call; since the clock only advances and
// delays are non-negative, the submit instant (plus any profile-wide
// minimum delay) is such a bound. Panics on an unsharded scheduler.
func (s *Scheduler) SubmitSealed(job Job, earliest Time) {
	if s.shards == 0 {
		panic("vclock: SubmitSealed on an unsharded scheduler")
	}
	if earliest < s.now {
		earliest = s.now
	}
	s.stats.BurstJobs++
	if earliest < s.earliest {
		s.earliest = earliest
	}
	s.jobs = append(s.jobs, shardTask{job: job})
}

// flush seals and expands every registered job, on the token. First every
// job is sealed — and its sequence block reserved, after every event already
// scheduled this window — in registration order. Then each shard expands the
// jobs, in registration order, into the wheel. Every key is fixed by the
// block layout, so visiting the shards one after another fills the wheel as
// any other interleaving of the (job, shard) calls would. Jobs registered but
// never flushed are dropped with the scheduler: by then the run is over or
// aborted and would never pop their events.
func (s *Scheduler) flush() {
	s.stats.PoolFlushes++
	for i := range s.jobs {
		t := &s.jobs[i]
		seqs, broadcasts := t.job.Seal()
		s.stats.ExpandJobs += broadcasts
		t.base = s.seq + 1
		s.seq += seqs
	}
	ins := &s.ins
	for sh := range s.shards {
		ins.n = 0
		for _, t := range s.jobs {
			t.job.ExpandShard(sh, t.base, ins)
		}
		s.stats.EventsScheduled += ins.n
		s.stats.ShardEvents += ins.n
		s.stats.MaxShardStage = max(s.stats.MaxShardStage, ins.n)
	}
	clear(s.jobs)
	s.jobs = s.jobs[:0]
	s.earliest = maxTime
}

// next makes the earliest pending event the wheel's head and returns its
// instant, or false when none is pending. It only does so while no
// registered job could insert an event that precedes the head — the
// lookahead rule; otherwise it flushes the jobs first.
//
// The rule: a pending event that ties the window's earliest instant pops
// first. Jobs reserve their sequence blocks at flush, strictly after every
// pending event's seq, so the tying event orders before anything they insert
// at that instant — which lets the whole cohort of one instant pop, and add
// to the window's jobs, before the window closes. Only an event strictly past
// the bound (or an empty queue) forces the flush.
//
// The stop: while jobs are registered, advance opens no slot past the
// earliest instant's. Every event of a later slot is past the bound, so the
// flush decision is the same either way; but the flush then fills the slots
// before it opens them, instead of piling the window into the late heap of a
// far slot opened too early.
func (s *Scheduler) next() (Time, bool) {
	for {
		ok := s.wheel.advance(&s.scratch, slotOf(s.earliest))
		var at Time
		if ok {
			head, _ := s.wheel.first()
			at = head.at
		}
		if len(s.jobs) > 0 && (!ok || at > s.earliest) {
			s.flush()
			continue
		}
		return at, ok
	}
}

// Spawn registers fn as a new coroutine. It starts runnable and takes its
// first step when Run reaches it (spawn order for coroutines spawned before
// Run). Spawning from a running coroutine or an event callback is allowed.
func (s *Scheduler) Spawn(name string, fn func()) *Proc {
	p := &Proc{s: s, name: name, resume: make(chan bool)}
	p.state = stateRunnable
	s.procs = append(s.procs, p)
	s.spawned++
	s.live++
	s.pushRunnable(p)
	go func() {
		if ok := <-p.resume; ok {
			fn()
		}
		p.state = stateDone
		s.live--
		s.yield <- struct{}{}
	}()
	return p
}

// SpawnHandler registers fn as a new inline handler process. Like a
// coroutine it starts runnable (its first invocation runs with the other
// initial steps, in spawn order) and thereafter is invoked once per Wake,
// in the same FIFO wake order coroutines resume in — so a run mixing the
// two body forms interleaves them identically to an all-coroutine run.
//
// Each invocation runs directly under the scheduler's execution token: no
// goroutine, no channel rendezvous. The contract (DESIGN.md §11):
//
//   - fn must return instead of blocking — a handler has no goroutine to
//     suspend, so Park must not be called from fn;
//   - returning without calling Finish parks the proc until the next Wake;
//   - fn(aborted=true) means the run was aborted (quiescence, deadline, or
//     step budget): the handler must record its blocked outcome and call
//     Finish — the inline analogue of Park returning false.
func (s *Scheduler) SpawnHandler(name string, fn func(aborted bool)) *Proc {
	p := &Proc{s: s, name: name, handler: fn}
	p.state = stateRunnable
	s.procs = append(s.procs, p)
	s.spawned++
	s.live++
	s.pushRunnable(p)
	return p
}

// pushRunnable appends p to the FIFO run queue.
func (s *Scheduler) pushRunnable(p *Proc) {
	// Compact the consumed head when it dominates the backing array.
	if s.runHead > 64 && s.runHead*2 >= len(s.runnable) {
		n := copy(s.runnable, s.runnable[s.runHead:])
		s.runnable = s.runnable[:n]
		s.runHead = 0
	}
	s.runnable = append(s.runnable, p)
}

// popRunnable removes and returns the next runnable coroutine, or nil.
func (s *Scheduler) popRunnable() *Proc {
	for s.runHead < len(s.runnable) {
		p := s.runnable[s.runHead]
		s.runnable[s.runHead] = nil
		s.runHead++
		if p.state == stateRunnable {
			return p
		}
		// Stale entry (the proc ran and finished meanwhile); skip.
	}
	s.runnable = s.runnable[:0]
	s.runHead = 0
	return nil
}

// abort marks the run aborted and makes every parked coroutine runnable so
// it can observe Park() = false and unwind.
func (s *Scheduler) abort() {
	if s.aborted {
		return
	}
	s.aborted = true
	for _, p := range s.procs {
		if p.state == stateParked {
			p.state = stateRunnable
			s.pushRunnable(p)
		}
	}
}

// step runs one wake of p: a handler proc is invoked inline; a coroutine
// gets the execution token handed over and blocks the loop until it parks
// or finishes.
func (s *Scheduler) step(p *Proc) {
	if p.handler != nil {
		s.stepHandler(p)
		return
	}
	p.state = stateRunning
	p.resume <- !s.aborted
	<-s.yield
}

// stepHandler invokes a handler proc under the execution token. A Wake
// that arrived during the invocation itself (rewake) runs the handler
// again immediately — the inline analogue of a woken coroutine re-checking
// its condition before parking.
func (s *Scheduler) stepHandler(p *Proc) {
	for {
		p.state = stateRunning
		p.rewake = false
		p.handler(s.aborted)
		if p.state == stateDone {
			return
		}
		if !p.rewake {
			p.state = stateParked
			return
		}
	}
}

// Release terminates every process the scheduler still owns, releasing the
// goroutines Spawn started. It is the
// teardown path for schedulers whose Run was never called (every spawned
// coroutine goroutine is still waiting at its birth gate and would
// otherwise leak) and for Runs unwound by a panicking event callback
// (parked coroutines would leak the same way); Run invokes it on the way
// out, and callers that build a scheduler but may abandon it should defer
// it themselves. In every case an unsharded scheduler hands the wheel's
// bucket array back to its pool, dropping the events still pending there; a
// sharded one keeps its own (see slotArray). After a completed Run that is
// all it does; calling it twice is a no-op.
//
// Release must be called from the goroutine that owns the scheduler, never
// from event callbacks or process bodies.
func (s *Scheduler) Release() {
	// Last, because an unwinding coroutine may still schedule events.
	if s.shards == 0 {
		defer s.wheel.recycleSlots()
	}
	if s.live == 0 {
		return // nothing unfinished — notably after every completed Run
	}
	s.aborted = true
	// Index loop: an unwinding coroutine may legally Spawn, appending procs.
	for i := 0; i < len(s.procs); i++ {
		p := s.procs[i]
		if p.state == stateDone {
			continue
		}
		if p.handler != nil {
			// Handler procs have no goroutine; just retire them.
			p.state = stateDone
			s.live--
			continue
		}
		// The coroutine's goroutine is blocked in <-p.resume — at its birth
		// gate or inside Park. Resume it with false so it unwinds; with
		// s.aborted set, any further Park returns false without a
		// rendezvous, so exactly one yield follows (from the goroutine's
		// exit path).
		p.resume <- false
		<-s.yield
	}
}

// Run drives the event loop to completion: processes run (in FIFO wake
// order) until all are parked, then the earliest pending event fires —
// after a flush of the registered jobs, when one of them could precede it
// (next) — advancing the virtual clock; repeat. Run returns once every process has finished — normally, or after
// an abort (quiescence, deadline, or event budget) unwound them.
//
// Run must be called exactly once per Scheduler.
func (s *Scheduler) Run() Outcome {
	// On a panicking event callback it releases every coroutine goroutine
	// (birth-gated or parked) instead of leaking them; it always recycles
	// a borrowed bucket array.
	defer s.Release()
	for {
		if p := s.popRunnable(); p != nil {
			s.step(p)
			continue
		}
		if s.spawned > 0 && s.live == 0 {
			// Every coroutine has finished: the run is over at the instant
			// of its last step. Leftover events (in-flight deliveries to
			// closed inboxes, crash instants that never struck) must not
			// advance the clock — they could inflate the run's reported
			// duration arbitrarily. Pure-event schedulers (no coroutines)
			// still drain the wheel completely.
			s.outcome.Now = s.now
			s.outcome.Steps = s.steps
			s.outcome.Stats = s.Stats()
			return s.outcome
		}
		if !s.aborted {
			if at, ok := s.next(); ok {
				if s.deadline > 0 && at > s.deadline {
					s.outcome.DeadlineExceeded = true
					s.abort()
					continue
				}
				if s.maxSteps > 0 && s.steps >= s.maxSteps {
					s.outcome.StepsExceeded = true
					s.abort()
					continue
				}
				ev := s.wheel.pop()
				s.steps++
				s.now = max(s.now, ev.at)
				ev.ev.Fire()
				continue
			}
		}
		if s.live > 0 {
			if !s.aborted {
				s.outcome.Quiesced = true
				s.abort()
				continue
			}
			// Aborted with live processes but none runnable: a coroutine
			// ignored Park() = false and parked again, or a handler ignored
			// its aborted invocation and did not Finish — a protocol bug in
			// the caller. Waking it once more would loop forever.
			panic(fmt.Sprintf("vclock: %d process(es) parked after abort", s.live))
		}
		s.outcome.Now = s.now
		s.outcome.Steps = s.steps
		s.outcome.Stats = s.Stats()
		return s.outcome
	}
}
