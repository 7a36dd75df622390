// Package mailbox provides an unbounded FIFO mailbox, the building block of
// the simulated message-passing system.
//
// Unboundedness is a correctness requirement, not a convenience: the
// model's channels are reliable and asynchronous, so a sender must never
// block on a slow (or decided, or crashed) receiver — otherwise the
// simulation would introduce flow-control synchrony absent from the model
// and could deadlock executions the paper's algorithms tolerate.
package mailbox

import "allforone/internal/vclock"

// Virtual is an unbounded FIFO inbox whose single consumer is a vclock
// process. An empty Get parks the bound coroutine and a Put (typically
// fired from a scheduled delivery event) wakes it — so "waiting for a
// message" consumes zero wall-clock time and the interleaving is fully
// owned by the scheduler.
//
// The queue is a power-of-two ring buffer reused across park/wake cycles:
// once the inbox has grown to the episode's high-water mark, draining and
// refilling it allocates nothing — head and count chase each other around
// the same backing array. Under the all-to-all exchange pattern each
// process's inbox fills and drains Θ(n) messages every round; the ring
// makes that steady state allocation-free (DESIGN.md §10).
//
// Virtual needs no lock: all accesses happen under the scheduler's single
// execution token. Producers never block.
type Virtual[T any] struct {
	buf    []T // ring storage; len(buf) is zero or a power of two
	head   int // index of the oldest item
	count  int // items queued
	waiter *vclock.Proc
	closed bool
}

// NewVirtual returns an open, empty virtual inbox. Bind must be called
// before the first Get.
func NewVirtual[T any]() *Virtual[T] { return &Virtual[T]{} }

// Bind attaches the consumer coroutine that Get parks and Put wakes.
func (v *Virtual[T]) Bind(p *vclock.Proc) { v.waiter = p }

// Put appends item and wakes the consumer if it is parked. Put on a closed
// inbox is a silent no-op: a message to a finished process is simply never
// consumed, which matches the model (the process has stopped taking
// steps). It reports whether the item was enqueued.
func (v *Virtual[T]) Put(item T) bool {
	if v.closed {
		return false
	}
	if v.count == len(v.buf) {
		v.grow()
	}
	v.buf[(v.head+v.count)&(len(v.buf)-1)] = item
	v.count++
	if v.waiter != nil {
		v.waiter.Wake()
	}
	return true
}

// grow doubles the ring, unwrapping the queued items to the front.
func (v *Virtual[T]) grow() {
	size := len(v.buf) * 2
	if size == 0 {
		size = 8
	}
	next := make([]T, size)
	n := copy(next, v.buf[v.head:])
	copy(next[n:], v.buf[:v.count-n])
	v.buf = next
	v.head = 0
}

// Get removes and returns the oldest item, parking the bound coroutine
// while the inbox is empty. It returns false when the inbox is closed and
// drained, or when the scheduler aborted the run (Park returned false).
// Get must only be called from the bound coroutine.
func (v *Virtual[T]) Get() (T, bool) {
	var zero T
	for {
		if item, ok := v.TryGet(); ok {
			return item, true
		}
		if v.closed {
			return zero, false
		}
		if v.waiter == nil {
			panic("mailbox: Get on an unbound Virtual inbox")
		}
		if !v.waiter.Park() {
			return zero, false
		}
	}
}

// TryGetOrClosed removes and returns the oldest item without parking; when
// the inbox is empty it additionally reports whether it is closed, i.e. no
// further item can ever arrive. It is the wait-free receive primitive of
// the batched-drain delivery mode (DESIGN.md §11): an inline handler body
// drains the whole ring in one invocation by calling it until ok is false,
// then uses closed to distinguish "return and wait for the next wake" from
// "blocked forever" — the two verdicts Get encodes as parking vs false.
func (v *Virtual[T]) TryGetOrClosed() (item T, ok, closed bool) {
	item, ok = v.TryGet()
	if ok {
		return item, true, false
	}
	return item, false, v.closed
}

// TryGet removes and returns the oldest item without parking.
func (v *Virtual[T]) TryGet() (T, bool) {
	var zero T
	if v.count == 0 {
		return zero, false
	}
	item := v.buf[v.head]
	v.buf[v.head] = zero
	v.head = (v.head + 1) & (len(v.buf) - 1)
	v.count--
	return item, true
}

// Len returns the number of queued items.
func (v *Virtual[T]) Len() int { return v.count }

// Close closes the inbox: future Puts are dropped, Gets drain the remaining
// items then report false. The consumer is woken so it can observe the
// close. Close is idempotent.
func (v *Virtual[T]) Close() {
	if v.closed {
		return
	}
	v.closed = true
	if v.waiter != nil {
		v.waiter.Wake()
	}
}

// Closed reports whether Close has been called.
func (v *Virtual[T]) Closed() bool { return v.closed }
