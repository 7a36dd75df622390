package netsim

import "allforone/internal/vclock"

// Inbox is one process's queue of delivered, unconsumed messages: unbounded
// and FIFO, since the model's channels are reliable and asynchronous — a
// sender never blocks on a slow, decided or crashed receiver.
//
// The oldest queued message is held inline (first, from) and only the later
// ones in a ring, which grows by doubling and is kept across fill and drain
// cycles. A delivery is followed by the recipient's invocation, which drains
// the inbox, before the next event pops, so the inline slot carries almost
// every message and the ring is the overflow of a cohort's arrivals. The hot
// words — first, from and n — lead the struct, so a record that embeds an
// Inbox after 24 bytes of its own keeps them, and the Proc beside them, on
// one cache line (driver.Handle).
//
// Whether an inbox is closed is the network's closed bitmap; the inbox
// holds only messages. The scheduler's execution token serialises every
// call, so it takes no lock.
type Inbox struct {
	first any     // the oldest queued message's payload, when n > 0
	from  int32   // and its sender
	n     uint32  // messages queued: first, then n-1 in ring from head on
	ring  []entry // len zero or a power of two
	head  uint32
}

// entry is a queued message past an inbox's first.
type entry struct {
	payload any
	from    int32
}

// binding is one process's inbox and the process that consumes it (Bind,
// BindInbox).
type binding struct {
	box  *Inbox
	proc *vclock.Proc
}

// put appends the message (from, payload).
func (b *Inbox) put(from int32, payload any) {
	if b.n == 0 {
		b.first, b.from, b.n = payload, from, 1
		return
	}
	b.putRing(from, payload)
}

// putRing appends the message (from, payload) behind the inline one.
func (b *Inbox) putRing(from int32, payload any) {
	k := b.n - 1
	if int(k) == len(b.ring) {
		b.grow()
	}
	b.ring[(b.head+k)&uint32(len(b.ring)-1)] = entry{payload: payload, from: from}
	b.n++
}

// get removes and returns the oldest message; the inbox must not be empty.
func (b *Inbox) get() (from int32, payload any) {
	from, payload = b.from, b.first
	if b.n--; b.n == 0 {
		b.first = nil
	} else {
		b.refill()
	}
	return from, payload
}

// refill moves the ring's oldest entry into the inline slot.
func (b *Inbox) refill() {
	e := &b.ring[b.head]
	b.first, b.from = e.payload, e.from
	*e = entry{}
	b.head = (b.head + 1) & uint32(len(b.ring)-1)
}

// grow doubles the ring, unwrapping the queued entries to the front.
func (b *Inbox) grow() {
	size := len(b.ring) * 2
	if size == 0 {
		size = 4
	}
	next := make([]entry, size)
	k := copy(next, b.ring[b.head:])
	copy(next[k:], b.ring[:int(b.n-1)-k])
	b.ring = next
	b.head = 0
}

// Len returns the number of queued messages.
func (b *Inbox) Len() int { return int(b.n) }

// Reset empties the inbox for another run, keeping its ring.
func (b *Inbox) Reset() {
	if b.n > 1 {
		clear(b.ring) // get zeroes what it hands out: only queued entries remain
	}
	*b = Inbox{ring: b.ring}
}
