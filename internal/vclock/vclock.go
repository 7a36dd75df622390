// Package vclock is the deterministic discrete-event scheduler every run
// executes on (DESIGN.md §3): virtual time in nanoseconds, events totally
// ordered by (at, seq) in a tiered timer wheel, and processes that are inline
// handlers invoked under one execution token, so a run is a pure function of
// its inputs and a delay costs no wall-clock time.
//
// A process is bound with Inline or SpawnHandler and invoked once per Wake;
// Spawn and Park keep the older coroutine form only for bench/layers.go and
// this package's tests. An event is a callback (AtEvent) or a message in
// transit (AtMessage), handed at its pop to the network registered with
// SetNetwork. At n ≥ 256 (ShardsFor) the scheduler is sharded: per-recipient
// work is submitted as a Job (SubmitSealed) and expanded shard by shard at a
// flush point the lookahead rule in next chooses. Run ends when every process
// has finished, at quiescence, or at the deadline or step budget (Outcome),
// and Recycle returns the scheduler to the pool New draws from.
package vclock

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"unsafe"
)

// Time is a virtual instant, in nanoseconds since the start of the run.
// It converts directly to and from time.Duration.
type Time int64

// maxTime is the sentinel "no bound" instant (Scheduler.earliest when idle).
const maxTime = Time(1<<63 - 1)

// Event is a schedulable callback. Implementations that are pointer-shaped
// (pooled structs, funcs) ride the scheduler without a per-event
// allocation — the simulated network's pooled fanouts, for one. A single
// message needs no callback at all: it rides a message event (AtMessage).
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

// Deliverer is the network a scheduler carries (SetNetwork): when a message
// event pops, Deliver receives the message it carries; when an inline
// process's handler reports it has finished, Retire receives the process's
// spawn index, so that its inbox closes.
type Deliverer interface {
	Deliver(from, to int, payload any)
	Retire(p int)
}

// event is one scheduled callback, or one message in transit. A message
// event carries the message itself: its sender and recipient in route, its
// payload in the two words that hold a callback event's Event (eventOf). A
// delivery thus reads the event the wheel has just ordered and no object of
// its own.
//
// At 40 bytes an event is wider than the compiler keeps in registers, so
// the wheel never passes one by value: it takes and returns the fields and
// writes them in place (set), and compares through pointers (before).
// Passed by value, an event goes through a stack temporary that is written
// a word at a time and copied out 16 bytes at a time, and each such copy
// stalls on its load.
type event struct {
	at    Time
	seq   uint64 // schedule order; the deterministic tie-breaker
	route uint64 // 0: a callback event; otherwise from<<32 | to+1 (routeOf)
	ev    Event
}

// routeOf packs a message's sender and recipient into an event's route
// word, which is never 0 for a recipient in [0, 2³²-1).
func routeOf(from, to int) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)+1) }

// eventOf stores a message's payload in an event's Event slot, and anyOf
// reads it back. An interface value and an empty interface value are both a
// type word and a data word, which the collector scans alike, so the slot
// holds either form — the callback or the payload, as route says. A slot
// holding a payload is never called, compared or asserted on.
func eventOf(payload any) Event { return *(*Event)(unsafe.Pointer(&payload)) }

// anyOf is the inverse of eventOf.
func anyOf(slot Event) any { return *(*any)(unsafe.Pointer(&slot)) }

// set writes the fields of the event at e.
func (e *event) set(at Time, seq, route uint64, ev Event) {
	e.at, e.seq, e.route, e.ev = at, seq, route, ev
}

// before reports whether e precedes o in the global (at, seq) total order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// pushEvent adds the event (at, seq, route, ev) to the min-heap h (ordered
// by before). Like siftDown it moves a hole, not an event: each level costs
// one event copy, not a swap.
func pushEvent(h *[]event, at Time, seq, route uint64, ev Event) {
	s := append(*h, event{})
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if p := &s[parent]; p.at < at || p.at == at && p.seq < seq {
			break // the parent precedes the new event
		}
		s[i] = s[parent]
		i = parent
	}
	s[i].set(at, seq, route, ev)
	*h = s
}

// dropMin removes the minimum event of heap h, which the caller has read.
func dropMin(h *[]event) {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{}
	s = s[:n]
	siftDown(s, 0)
	*h = s
}

// siftDown restores the heap property below index i: it moves the event at
// i down a hole, copying each smaller child up one level, and stores it once
// where the hole stops.
func siftDown(s []event, i int) {
	n := len(s)
	if i >= n {
		return
	}
	x := s[i]
	for {
		min := 2*i + 1
		if min >= n {
			break
		}
		if r := min + 1; r < n && s[r].before(&s[min]) {
			min = r
		}
		if !s[min].before(&x) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = x
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
// (DESIGN.md §3).
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
	// scheduler (At/After/AtEvent/AfterEvent/AtMessage calls plus
	// shard-expanded events).
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
	// (ShardInserter.At and AtMessage; 0 for unsharded runs). A fanout's
	// re-arms are ordinary AtEvent calls and are not counted here.
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
	// constructed at flushes through the network's payload pool (reported
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
	//     the slot held when it opened, copied out of its bucket in insert
	//     order; order lists them DESCENDING by (at, seq), so the earliest is
	//     its last element and a pop shortens it — plus late, a min-heap of
	//     the events inserted since;
	//   - slots.buckets[s&wheelMask] holds the events of absolute slot s for
	//     curSlot < s < curSlot+wheelSlots, unsorted, in chunks; a bucket with
	//     no event holds no chunk;
	//   - overflow holds (as a min-heap) events at or past the horizon —
	//     plus, transiently, events whose slot entered the window since the
	//     last advance; advance() drains those before choosing a bucket;
	//   - wheelCount counts events in slots (excluding run/late/overflow);
	//   - no slice of the wheel holds an event past its length, run none
	//     outside order, a bucket's chunks none past its count and a chunk
	//     on the free list none at all: pops zero the vacated entry, and
	//     opening a slot zeroes each chunk it copies out and frees it at
	//     once, so storage can be recycled by clearing the pending events
	//     alone.
	run, late  []event
	order      []uint32   // indices into run
	slots      *slotArray // nil until the first bucket insert
	curSlot    int64
	wheelCount int
	overflow   []event

	cascades int64
	maxDepth int64
}

// chunkLen is the number of events a chunk holds: 2.5 KB of events, so the
// storage a bucket leaves unused is at most one chunk's.
const chunkLen = 64

// chunk is a fixed-size block of one bucket's events. Every chunk of a
// bucket is full but its tail; next links a bucket's chunks in insert order,
// and the free list's.
type chunk struct {
	ev   [chunkLen]event
	next *chunk
}

// bucket is one wheel slot's events: n of them, in insert order, in the
// chain of chunks from head to tail.
type bucket struct {
	head, tail *chunk
	n          int
}

// slotArray is the wheel's near-future bucket array — 6 KB of bucket
// headers — plus the free list of chunks every bucket takes its storage
// from. An insert appends into its bucket's tail chunk, or a chunk off the
// free list when the tail is full; opening a slot copies the bucket's events
// into the run and puts its chunks back at once. So the storage a wheel
// keeps follows the events pending at once — a chunk per 64 of them, plus
// at most one part-filled chunk per bucket — not the depth of every bucket
// it ever held. The array belongs to its scheduler and travels with it when
// Recycle hands the scheduler to a later run, sharded or not (see
// Scheduler.Recycle): a run neither zeroes a fresh array nor grows its
// chunks again.
type slotArray struct {
	buckets [wheelSlots]bucket
	free    *chunk // every entry of every chunk zero
}

// push appends the event (at, seq, route, ev) to bucket b, taking a chunk
// off the free list, or a new one, when b's tail chunk is full.
func (st *slotArray) push(b *bucket, at Time, seq, route uint64, ev Event) {
	i := b.n % chunkLen
	if i == 0 {
		c := st.free
		if c == nil {
			c = new(chunk)
		} else {
			st.free, c.next = c.next, nil
		}
		if b.tail == nil {
			b.head = c
		} else {
			b.tail.next = c
		}
		b.tail = c
	}
	b.tail.ev[i].set(at, seq, route, ev)
	b.n++
}

// release puts chunk c, which must hold no event, on the free list, and
// returns the chunk that followed it in its bucket.
func (st *slotArray) release(c *chunk) *chunk {
	next := c.next
	c.next, st.free = st.free, c
	return next
}

// take copies bucket b's events, in insert order, into run — whose array
// must hold no event; it is grown when too short — and returns it. b's
// chunks are zeroed and freed as they are copied, and b is left empty.
func (st *slotArray) take(b *bucket, run []event) []event {
	run = slices.Grow(run[:0], b.n)[:b.n]
	for k, c := 0, b.head; c != nil; {
		m := copy(run[k:], c.ev[:])
		clear(c.ev[:m])
		k += m
		c = st.release(c)
	}
	*b = bucket{}
	return run
}

// drop zeroes bucket b's events and frees its chunks, leaving b empty.
func (st *slotArray) drop(b *bucket) {
	for left, c := b.n, b.head; c != nil; left -= chunkLen {
		clear(c.ev[:min(left, chunkLen)])
		c = st.release(c)
	}
	*b = bucket{}
}

// reset empties the wheel for another run at virtual time zero, keeping its
// storage: the events still pending in any tier are dropped (the run is over
// or aborted and would never pop them) and zeroed, every bucket's chunks go
// back on the free list, and the run, the heaps and the order keep their
// capacity.
func (w *wheel) reset() {
	if st := w.slots; st != nil {
		// The pending buckets lie in the window after the open slot; walk it
		// only until they are all found.
		for sl, left := w.curSlot+1, w.wheelCount; left > 0; sl++ {
			b := &st.buckets[sl&wheelMask]
			left -= b.n
			st.drop(b)
		}
	}
	clear(w.run)
	clear(w.late)
	clear(w.overflow)
	*w = wheel{slots: w.slots, run: w.run[:0], order: w.order[:0], late: w.late[:0], overflow: w.overflow[:0]}
}

// insert routes the event (at, seq, route, ev) to its tier: the open slot's
// late heap, a wheel bucket, or the far-future overflow heap.
func (w *wheel) insert(at Time, seq, route uint64, ev Event) {
	slot := slotOf(at)
	switch {
	case slot <= w.curSlot:
		// The open slot — including the defensive clamp for events
		// scheduled by unwinding coroutines after an abort peeked ahead
		// (such events are never popped: the run processes no more events).
		pushEvent(&w.late, at, seq, route, ev)
		if d := int64(len(w.order) + len(w.late)); d > w.maxDepth {
			w.maxDepth = d
		}
	case slot < w.curSlot+wheelSlots:
		if w.slots == nil {
			w.slots = new(slotArray)
		}
		b := &w.slots.buckets[slot&wheelMask]
		w.slots.push(b, at, seq, route, ev)
		w.wheelCount++
		if d := int64(b.n); d > w.maxDepth {
			w.maxDepth = d
		}
	default:
		pushEvent(&w.overflow, at, seq, route, ev)
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
			e := &w.overflow[0]
			at, seq, route, ev := e.at, e.seq, e.route, e.ev
			dropMin(&w.overflow)
			w.cascades++
			w.insert(at, seq, route, ev)
		}
		if len(w.order)+len(w.late) > 0 {
			return true
		}
		if w.wheelCount > 0 {
			// Walk the window to the next non-empty bucket and activate it.
			sl, end := w.curSlot+1, w.curSlot+wheelSlots
			for ; sl < end && w.slots.buckets[sl&wheelMask].n == 0; sl++ {
			}
			if sl == end {
				panic("vclock: wheelCount > 0 but no bucket found in window")
			}
			if sl > stop {
				return false
			}
			b := &w.slots.buckets[sl&wheelMask]
			w.curSlot = sl
			w.wheelCount -= b.n
			// Every event of the run has been popped, and zeroed: the
			// bucket's events move into its array.
			w.run = w.slots.take(b, w.run)
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
// shallow bucket. Only 4-byte indices move: ordering the 40-byte events
// themselves costs what the heap's sifts did (DESIGN.md §3). scratch is the
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
		if !run[order[i-1]].before(&run[order[i]]) {
			continue
		}
		x, j := order[i], i
		for ; j > 0 && run[order[j-1]].before(&run[x]); j-- {
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
	if len(w.late) > 0 && w.late[0].before(ev) {
		return &w.late[0], true
	}
	return ev, false
}

// pop removes the open slot's head and returns its instant, route and Event
// slot.
func (w *wheel) pop() (at Time, route uint64, ev Event) {
	head, late := w.first()
	at, route, ev = head.at, head.route, head.ev
	if late {
		dropMin(&w.late)
	} else {
		*head = event{}
		w.order = w.order[:len(w.order)-1]
	}
	return at, route, ev
}

// Process states (both body forms).
const (
	stateRunnable = iota // queued to run
	stateRunning         // currently holding the execution token
	stateParked          // suspended (in Park, or between handler invocations)
	stateDone            // fn returned / Finish was called
)

// Proc is a cooperatively scheduled process — a coroutine (Spawn) or an
// inline handler (Inline, SpawnHandler). All its methods must be called
// from scheduler-controlled code: from within a process body (Park, Finish) or
// from event callbacks and other bodies (Wake). The single-token handoff
// makes every such call data-race free without locks.
//
// A Proc holds only what a wake and an invocation read — 32 bytes, so that a
// caller keeping one inside a per-process record of its own (Inline) keeps
// it on one cache line with the rest of what the process touches per
// message. A coroutine's channel lives in what Spawn allocates.
type Proc struct {
	s       *Scheduler
	handler Handler // the body; a coroutine's is its *coroutine
	id      int32   // spawn index: the network inbox Retire closes
	state   uint8
	rewake  bool // a Wake arrived during the handler's own invocation
}

// Handler is an inline process's body (Inline, SpawnHandler): React runs one
// invocation under the scheduler's execution token and reports whether the
// process has finished. A finished process is never invoked again, and the
// scheduler's network (SetNetwork) closes its inbox.
type Handler interface {
	React(aborted bool) (finished bool)
}

// HandlerFunc adapts a plain func to Handler, as http.HandlerFunc does. Func
// values are pointer-shaped, so the conversion does not allocate. Its
// process finishes only by calling Finish.
type HandlerFunc func(aborted bool)

// React calls f(aborted) and reports the process unfinished.
func (f HandlerFunc) React(aborted bool) bool {
	f(aborted)
	return false
}

// coroutine is what Spawn allocates: the Proc and the channel its goroutine
// waits on. As the Proc's handler, an invocation hands it the execution
// token and takes it back once the body parks or returns.
type coroutine struct {
	p      Proc
	resume chan bool // scheduler → proc; false = run aborted
}

// React resumes the coroutine and waits until it parks or finishes. A Wake
// the coroutine issued on itself while running is dropped: it parks only
// after re-checking its condition.
func (c *coroutine) React(aborted bool) bool {
	c.resume <- !aborted
	<-c.p.s.yield
	c.p.rewake = false
	return false
}

// Scheduler returns the scheduler p runs on.
func (p *Proc) Scheduler() *Scheduler { return p.s }

// Park suspends the calling coroutine until another party calls Wake (then
// Park returns true) or the scheduler aborts the run (then false: the
// coroutine must unwind promptly and not Park again). Calling Park from
// outside the coroutine's own fn — in particular from a handler proc's
// body, which has no goroutine to suspend — is a protocol violation.
func (p *Proc) Park() bool {
	c, ok := p.handler.(*coroutine)
	if !ok {
		panic("vclock: Park called on a handler proc")
	}
	s := p.s
	if s.aborted {
		return false
	}
	p.state = stateParked
	s.yield <- struct{}{}
	return <-c.resume
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
		p.rewake = true
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
// coroutine finishes by returning). Unlike a handler reporting itself
// finished, Finish leaves the process's inbox to its owner.
func (p *Proc) Finish() {
	if _, ok := p.handler.(*coroutine); ok {
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
	// Quiesced is set when live processes remained but no event could ever
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
	si.insert(at, seq, 0, ev)
}

// AtMessage schedules the message (from, to, payload) for delivery at
// instant at with the given sequence number, as At schedules an event.
func (si *ShardInserter) AtMessage(at Time, seq uint64, from, to int, payload any) {
	si.insert(at, seq, routeOf(from, to), eventOf(payload))
}

// insert puts one expanded event into the wheel.
func (si *ShardInserter) insert(at Time, seq, route uint64, ev Event) {
	s := si.s
	if at < s.now {
		// Defensive: a job's events may not precede its declared earliest,
		// and pops never pass the earliest of the registered jobs without
		// flushing them — so this clamp should never bite; it mirrors
		// AtEvent's "time never flows backwards".
		at = s.now
	}
	s.wheel.insert(at, seq, route, ev)
	si.n++
}

// NotePayloadBytes records n bytes of payload the running job built through
// a payload pool (SchedulerStats.PooledPayloadBytes).
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
	net   Deliverer      // receives the message events; nil until SetNetwork

	// Window expansion. jobs holds the jobs registered since the last flush,
	// in registration order; earliest lower-bounds the instant of any event
	// they may insert (maxTime when none is registered). Jobs reserve their
	// sequence blocks only at flush — after every event pending by then —
	// which is what the lookahead rule in next rests on. ins is the flush's
	// inserter, kept here so that a flush allocates nothing.
	jobs     []shardTask
	earliest Time
	ins      ShardInserter

	procs    []*Proc // in spawn order; the Procs are the callers' (Inline) or Spawn's
	spawned  int
	live     int
	runnable []*Proc // FIFO; head index below avoids reallocating on pop
	runHead  int

	yield chan struct{} // proc → scheduler: "I parked or finished"; made by the first Spawn

	deadline Time  // 0 = none
	maxSteps int64 // 0 = none
	steps    int64

	aborted bool
	outcome Outcome

	// The keep slots: keep is what this run stored with Keep, kept what an
	// earlier run on the scheduler stored, handed on by Recycle.
	keep, kept [keepSlots]any
}

// KeepSlot names one of the values a scheduler carries from a run to the
// next (Keep).
type KeepSlot uint8

const (
	// KeepNetwork holds the run's network, with the storage it grew.
	KeepNetwork KeepSlot = iota
	// KeepProcs holds the storage of the run's processes.
	KeepProcs
	keepSlots
)

// schedulers holds the schedulers Recycle handed back, every one of them
// coroutine-free and cleared; New draws from it.
var schedulers sync.Pool

// Option customizes a Scheduler. It is a plain value, not a closure, so
// configuring a run allocates nothing.
type Option struct {
	kind optionKind
	n    int64
}

// optionKind names the Scheduler setting an Option carries.
type optionKind uint8

const (
	_ optionKind = iota // the zero Option sets nothing
	optDeadline
	optMaxSteps
	optShards
)

// WithDeadline aborts the run before processing any event scheduled past
// virtual instant d. Zero means no deadline.
func WithDeadline(d Time) Option { return Option{kind: optDeadline, n: int64(d)} }

// WithMaxSteps aborts the run after processing n events — the deterministic
// guard against executions that never converge. Zero means no budget.
func WithMaxSteps(n int64) Option { return Option{kind: optMaxSteps, n: n} }

// WithShards splits the scheduler's window expansion into shards shards (at
// most NumShards): a flush calls every job's ExpandShard once per shard, and
// the network maps each shard to a recipient stripe with its own stream; see
// the package comment. Every shard inserts into the one wheel. Zero shards
// keeps the scheduler unsharded and makes the option a no-op.
// Any further argument is ignored; it is accepted, and deprecated, so that
// callers of the old two-argument form WithShards(shards, workers) still
// compile.
func WithShards(shards int, _ ...int) Option { return Option{kind: optShards, n: int64(shards)} }

// apply sets what o carries on s.
func (s *Scheduler) apply(o Option) {
	switch o.kind {
	case optDeadline:
		s.deadline = Time(o.n)
	case optMaxSteps:
		s.maxSteps = o.n
	case optShards:
		if o.n > 0 {
			s.shards = min(int(o.n), NumShards)
		}
	}
}

// New returns an empty scheduler at virtual time zero: one an earlier run
// handed back with Recycle, with the storage that run grew, or a new one.
func New(opts ...Option) *Scheduler {
	s, _ := schedulers.Get().(*Scheduler)
	if s == nil {
		s = &Scheduler{earliest: maxTime}
		s.ins.s = s
	}
	for _, o := range opts {
		s.apply(o)
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
// (e.g. a pooled fanout) is stored without boxing.
func (s *Scheduler) AtEvent(t Time, ev Event) {
	s.schedule(t, 0, ev)
}

// AtMessage schedules the message (from, to, payload) for delivery at
// virtual instant t (clamped to now): when it pops, the scheduler hands it to
// the network SetNetwork registered. It is ordered, counted and stored like
// any event, and allocates nothing. to must be non-negative.
func (s *Scheduler) AtMessage(t Time, from, to int, payload any) {
	if s.net == nil {
		panic("vclock: AtMessage on a scheduler with no network")
	}
	s.schedule(t, routeOf(from, to), eventOf(payload))
}

// schedule inserts the event (t, route, ev) with the next sequence number.
func (s *Scheduler) schedule(t Time, route uint64, ev Event) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.stats.EventsScheduled++
	s.wheel.insert(t, s.seq, route, ev)
}

// SetNetwork registers d as the network that receives the scheduler's
// message events (AtMessage). A scheduler carries one network per run: a
// second registration returns an error and changes nothing, so a delivery
// can never be routed to a network other than its sender's.
func (s *Scheduler) SetNetwork(d Deliverer) error {
	if s.net != nil {
		return errors.New("vclock: the scheduler already carries a network")
	}
	s.net = d
	return nil
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
// The name is not kept; the parameter remains so that callers compile.
func (s *Scheduler) Spawn(_ string, fn func()) *Proc {
	if s.yield == nil {
		s.yield = make(chan struct{})
	}
	c := &coroutine{resume: make(chan bool)}
	p := &c.p
	s.Inline(p, c)
	go func() {
		if ok := <-c.resume; ok {
			fn()
		}
		p.state = stateDone
		s.live--
		s.yield <- struct{}{}
	}()
	return p
}

// SpawnHandler registers fn as a new inline handler process, in a Proc of
// its own: Inline(new(Proc), HandlerFunc(fn)). fn finishes its process by
// calling Finish. The name is not kept; the parameter remains so that
// callers compile.
func (s *Scheduler) SpawnHandler(_ string, fn func(aborted bool)) *Proc {
	p := new(Proc)
	s.Inline(p, HandlerFunc(fn))
	return p
}

// Inline registers h as a new inline handler process in p, the caller's
// storage, which must be zero and stay in place until the scheduler is
// recycled — so a caller that keeps one record per process in a slab of its
// own spawns its processes without an allocation. Like a coroutine the
// process starts runnable (its first invocation runs with the other initial
// steps, in spawn order) and thereafter is invoked once per Wake, in the same
// FIFO wake order coroutines resume in — so a run mixing the two body forms
// interleaves them identically to an all-coroutine run. Its spawn index is
// the inbox Retire names when it finishes.
//
// Each invocation runs directly under the scheduler's execution token: no
// goroutine, no channel rendezvous. The contract (DESIGN.md §3):
//
//   - React must return instead of blocking — a handler has no goroutine to
//     suspend, so Park must not be called from it;
//   - returning false without calling Finish parks the proc until the next
//     Wake; returning true finishes it;
//   - React(aborted=true) means the run was aborted (quiescence, deadline,
//     or step budget): the handler must record its blocked outcome and
//     finish — the inline analogue of Park returning false.
func (s *Scheduler) Inline(p *Proc, h Handler) {
	p.s, p.handler, p.id = s, h, int32(s.spawned)
	p.state = stateRunnable
	s.procs = append(s.procs, p)
	s.spawned++
	s.live++
	s.pushRunnable(p)
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

// step runs one wake of p under the execution token: an inline handler is
// invoked in place, a coroutine handed the token until it parks or finishes.
// A Wake that arrived during a handler's invocation itself (rewake) runs it
// again immediately — the inline analogue of a woken coroutine re-checking
// its condition before parking. A handler that reports itself finished
// retires, and the network closes its inbox.
func (s *Scheduler) step(p *Proc) {
	for {
		p.state = stateRunning
		p.rewake = false
		if p.handler.React(s.aborted) {
			p.Finish()
			if s.net != nil {
				s.net.Retire(int(p.id))
			}
			return
		}
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
// it themselves. After a completed Run it does nothing; calling it twice is a
// no-op.
//
// Release must be called from the goroutine that owns the scheduler, never
// from event callbacks or process bodies.
func (s *Scheduler) Release() {
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
		c, ok := p.handler.(*coroutine)
		if !ok {
			// Handler procs have no goroutine; just retire them.
			p.state = stateDone
			s.live--
			continue
		}
		// The coroutine's goroutine is blocked in <-c.resume — at its birth
		// gate or inside Park. Resume it with false so it unwinds; with
		// s.aborted set, any further Park returns false without a
		// rendezvous, so exactly one yield follows (from the goroutine's
		// exit path).
		c.resume <- false
		<-s.yield
	}
}

// Run drives the event loop to completion: processes run (in FIFO wake
// order) until all are parked, then the earliest pending event fires —
// after a flush of the registered jobs, when one of them could precede it
// (next) — advancing the virtual clock; repeat. Run returns once every process has finished — normally, or after
// an abort (quiescence, deadline, or event budget) unwound them.
//
// Run must be called exactly once per scheduler New returns.
func (s *Scheduler) Run() Outcome {
	// On a panicking event callback it releases every coroutine goroutine
	// (birth-gated or parked) instead of leaking them.
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
				at, route, ev := s.wheel.pop()
				s.steps++
				s.now = max(s.now, at)
				if route != 0 {
					s.net.Deliver(int(int32(route>>32)), int(uint32(route))-1, anyOf(ev))
				} else {
					ev.Fire()
				}
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

// Keep stores v in slot for the next run on this scheduler: once Recycle has
// handed the scheduler on, that run's Kept(slot) returns it. The scheduler
// never looks inside v. A later Keep in the same run replaces it.
func (s *Scheduler) Keep(slot KeepSlot, v any) { s.keep[slot] = v }

// Kept returns, once, what the run before this one stored in slot with Keep
// — nil on a new scheduler, after the first call, and for anything stored in
// this run (it becomes Kept only through Recycle).
func (s *Scheduler) Kept(slot KeepSlot) any {
	v := s.kept[slot]
	s.kept[slot] = nil
	return v
}

// Recycle hands the scheduler back for a later New, once Run has returned and
// the caller has read the Outcome; the caller must not use it, or any Proc it
// spawned, afterwards. The scheduler is cleared as the next run needs it —
// virtual time zero, no event (and so no payload) pending in any tier, no
// job, no network, no process, no shards, zero stats and Outcome — and keeps
// the storage this run grew: the bucket array and its free chunks, the run
// and the heaps, the run queue and the process list. A sharded scheduler is
// recycled like any other: its chunks follow the events it had pending at
// once, so what the pool carries into the next run is bounded by the peak
// of this one. Nothing a finished run did stays reachable from it but the
// values it stored with Keep, which become the next run's Kept and which
// their owners clear before they store them.
//
// A scheduler that ever ran Spawn is not recycled, since its goroutines may
// outlive Run: Recycle leaves it as it is, for the collector.
func (s *Scheduler) Recycle() {
	if s.yield != nil {
		return
	}
	s.reset()
	schedulers.Put(s)
}

// reset clears s as Recycle describes.
func (s *Scheduler) reset() {
	s.wheel.reset()
	clear(s.procs)
	clear(s.runnable)
	clear(s.jobs)
	kept := s.keep
	for i, v := range kept {
		if v == nil {
			kept[i] = s.kept[i]
		}
	}
	*s = Scheduler{
		wheel:    s.wheel,
		scratch:  s.scratch,
		jobs:     s.jobs[:0],
		earliest: maxTime,
		procs:    s.procs[:0],
		runnable: s.runnable[:0],
		kept:     kept,
	}
	s.ins.s = s
}
