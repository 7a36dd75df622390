// Package netsim simulates the message-passing dimension of the hybrid
// model (paper §II-A): every pair of processes is connected by a reliable
// bidirectional asynchronous channel. Reliable means messages are neither
// corrupted, nor duplicated, nor lost; asynchronous means transit duration
// is arbitrary but finite.
//
// The broadcast macro-operation is intentionally not reliable: if the
// sender crashes while executing it, an arbitrary subset of processes
// receives the message. BroadcastSubset exposes exactly that failure
// semantics to the failure injector.
//
// The network runs on a discrete-event scheduler (WithScheduler, required):
// transit is a timestamped delivery event and receivers park their
// coroutine or drain their inbox from a handler — no wall-clock time ever
// passes and executions are deterministic.
package netsim

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"time"

	"allforone/internal/mailbox"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/vclock"
)

// Message is a point-to-point message in flight.
type Message struct {
	From    model.ProcID
	To      model.ProcID
	Payload any
}

// TimedDelayFn computes the transit delay of a message given the send
// instant `now` on the virtual clock — which is what lets delay policies
// depend on the run's history, e.g. a network partition that heals at a
// fixed virtual instant. The caller serializes rng, so the function may use
// it without synchronization.
type TimedDelayFn func(now time.Duration, rng *rand.Rand, m Message) time.Duration

// options collects network construction parameters.
type options struct {
	seed     uint64
	counters *metrics.Counters
	sched    *vclock.Scheduler

	// The delay policy: at most one of timedFn and the uniform band is set
	// once New has settled their precedence (resolvePolicy).
	timedFn         TimedDelayFn
	uniform         bool
	uniMin, uniSpan time.Duration
}

// resolvePolicy settles, once, which configured delay policy is in force —
// whatever order the options came in: a timed function beats the uniform
// band. Every reader after New (draw, the lookahead hint of openWindow, the
// sharding predicate) sees one policy.
func (o *options) resolvePolicy() {
	if o.timedFn != nil {
		o.uniform = false
	}
}

// delays reports whether any delay policy is configured.
func (o *options) delays() bool {
	return o.timedFn != nil || o.uniform
}

// draw returns the transit delay of m, sent at instant at, under the
// configured policy, drawing from rng — the one delay draw behind Send,
// every fanout and every expansion shard. The caller serializes rng.
func (o *options) draw(rng *rand.Rand, at time.Duration, m Message) time.Duration {
	var d time.Duration
	switch {
	case o.timedFn != nil:
		d = o.timedFn(at, rng, m)
	case o.uniform:
		d = o.uniMin
		if o.uniSpan > 0 {
			d += time.Duration(rng.Int64N(int64(o.uniSpan) + 1))
		}
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Option customizes a Network.
type Option func(*options)

// WithSeed fixes the seed of the delay RNG, making delay draws reproducible.
func WithSeed(seed uint64) Option {
	return func(o *options) { o.seed = seed }
}

// WithUniformDelay draws each message's transit time uniformly from
// [min, max] — the compile target of protocol.Uniform. On a sharded
// scheduler min also lets each send window stay open for min of virtual
// time (openWindow). A zero max keeps the default immediate delivery.
func WithUniformDelay(min, max time.Duration) Option {
	return func(o *options) {
		o.uniform, o.uniMin, o.uniSpan = max > 0, min, max-min
	}
}

// WithTimedDelayFn installs a clock-aware delay policy — the compile
// target of the public API's non-uniform NetworkProfiles (per-link skew
// matrices, asymmetric cluster WANs, partitions healing at an instant). It
// overrides WithUniformDelay, in either option order.
func WithTimedDelayFn(fn TimedDelayFn) Option {
	return func(o *options) { o.timedFn = fn }
}

// WithCounters wires the network to a metrics sink; sends and deliveries
// are counted there.
func WithCounters(c *metrics.Counters) Option {
	return func(o *options) { o.counters = c }
}

// WithScheduler attaches the network to its discrete-event scheduler
// (required): message transit is a scheduled delivery event at a virtual
// timestamp (now + delay), and Receive parks the consumer's coroutine. Each
// consumer must be attached with Bind before its first Receive, and all
// network calls must come from scheduler-controlled code (coroutines,
// handlers or event callbacks).
func WithScheduler(s *vclock.Scheduler) Option {
	return func(o *options) { o.sched = s }
}

// Network is the simulated fully connected reliable asynchronous network
// for n processes. The scheduler's single execution token serializes every
// call.
type Network struct {
	n      int
	vboxes []*mailbox.Virtual[Message]
	opts   options
	rng    *rand.Rand
	closed bool // set by Shutdown, once the run is over

	// Event pools (guarded by the scheduler's execution token, like
	// everything else here). Delivery and fanout events cycle through
	// these freelists instead of allocating one closure plus one heap box
	// per message — the zero-alloc delivery path.
	freeDeliveries []*delivery
	freeFanouts    []*fanout
	everyone       []model.ProcID // the 0 … n-1 recipient list (SendAll); built once in New
	packKeys       []uint64       // packed-word scratch (sendFan), hot across broadcasts
	closedBox      []uint64       // closed-inbox bitmap, mirrors vboxes[i].Closed()

	// Sharded expansion state (expand.go); nil unless the scheduler is
	// sharded and a delay policy makes expansion worth fanning out.
	shards      []sendShard
	shardOf     []uint8 // recipient → owning shard (len n)
	seqPerShard uint64  // sequence numbers one shard may use per broadcast
	fanOK       bool    // SendAll may use the packed-key fanouts (n fits the key)
	win         window  // the current flush window's expansion job

	freePayloads []any // token-owned payload pool of the unsharded BurstSendVia fallback
}

// delivery is a pooled single-message delivery event: the
// scheduled form of one point-to-point Send. shard names the pool that owns
// it: a shard-expanded delivery cycles through its recipient shard's
// freelist (see sendShard), everything else through the network-global one.
type delivery struct {
	nw    *Network
	box   *mailbox.Virtual[Message]
	msg   Message
	shard int32 // owning pool; -1 = network-global
}

// Fire delivers the message and returns the envelope to the pool.
func (d *delivery) Fire() {
	box, msg := d.box, d.msg
	d.box, d.msg = nil, Message{}
	if d.shard >= 0 {
		sh := &d.nw.shards[d.shard]
		sh.freeDel = append(sh.freeDel, d)
	} else {
		d.nw.freeDeliveries = append(d.nw.freeDeliveries, d)
	}
	box.Put(msg)
}

// fanout is a pooled batched-broadcast event: one broadcast schedules a
// single event that materializes its deliveries lazily — each firing delivers
// the cohort of arrivals due now and reschedules the event at the next
// distinct instant. A broadcast with g distinct arrival instants that are
// ever reached costs g scheduler events instead of n, and zero allocations
// once the pool is warm.
//
// Arrivals are ordered lazily too. Under the one-for-all rule a recipient
// closes an exchange on a handful of senders, so most arrivals of a dense run
// are still in flight when it ends; sorting them all at send time pays for an
// order nobody reads. Instead load only distributes them, in one counting
// pass, over up to fanBuckets buckets of equal delay width — bucket b's
// entries, in list order, before bucket b+1's — and Fire sorts a bucket when
// the deliveries reach it: entries[next:sorted] are in delivery order, the
// rest is bucketed but unsorted, and a run that ends early never pays for the
// buckets it did not reach. An entry is (delay − least delay) << bits |
// position in the recipient list to, so sorting whole words orders by
// arrival instant, then list position — ascending ids for SendAll and shard
// stripes, list order for BroadcastSubset — which is the order a stable sort
// by delay would deliver in; each recipient appears at most once per fanout,
// so the tie-break only decides mailbox wake order. bits is sized per fanout
// from len(to), and entries are 4 bytes (keys) whenever the spread of the
// delays fits the remaining bits — a 128-wide stripe leaves 2²⁵ ns ≈ 33 ms —
// and 8 bytes (wide) otherwise; a fanout is in the wide form exactly while
// wide is non-empty, and both slices keep their capacity across pool cycles.
// The narrow form matters because a broadcast's undelivered tail keeps the
// fanout live for the full delay span: at n=1024 thousands of fanouts are in
// flight at once, 4-byte entries halve that resident set, and the Fire path
// is cache-miss-bound on it.
type fanout struct {
	nw      *Network
	from    model.ProcID
	payload any
	base    vclock.Time    // send instant + least delay: entry delays count from it
	to      []model.ProcID // the recipient list entry positions index; immutable while in flight
	keys    []uint32       // narrow entries
	wide    []uint64       // wide entries, when the delay spread overflows a narrow one
	next    int32          // index of the next entry to deliver
	sorted  int32          // entries before this index are in delivery order
	bits    uint8          // width of an entry's position field
	shift   uint8          // an entry's bucket is its delay field >> shift
	shard   int32          // owning shard pool, -1 for the network-global pool
}

// Packed-key bounds of packFan's scratch words, (delay << fanSeqBits) |
// position: positions need fanSeqBits, leaving 50 bits of delay — about 13
// virtual days. Networks wider than 1<<fanSeqBits processes, or a delay draw
// beyond the bound, fall back to one pooled per-message delivery event
// (correct, just not batched).
const (
	fanSeqBits  = 13
	maxPackFan  = 1 << fanSeqBits
	maxPackWait = vclock.Time(1) << (63 - fanSeqBits)
)

// Bucket geometry of a fanout: the largest power of two of buckets that
// leaves at least fanRun entries per bucket under a uniform band, at most
// fanBuckets (a 512-wide stripe, the widest the sharded path packs, gets 8
// per bucket; the paper's n=7 trials get one bucket, sorted whole at load). A
// bucket is insertion-sorted when it is reached; one longer than fanLongRun —
// a delay profile that clusters, or a fanout far wider than a stripe — goes
// to the library sort instead of paying the quadratic.
const (
	fanRun     = 4
	fanBuckets = 64
	fanLongRun = 32
)

// fanKey is a fanout entry word: narrow or wide.
type fanKey interface{ uint32 | uint64 }

// bucketFan stores the arrivals words (packFan's, in list order, delays
// within [minDelay, minDelay+spread]) as fanout entries with a bits-wide
// position field, grouped by bucket — delay field >> shift — and in list
// order within a bucket; the first bucket is sorted. dst is reused when it is
// large enough. It returns the entries and the end of the sorted prefix.
func bucketFan[K fanKey](dst []K, words []uint64, minDelay, spread uint64, bits, shift uint8) ([]K, int) {
	if cap(dst) < len(words) {
		dst = make([]K, len(words))
	}
	dst = dst[:len(words)]
	mask := uint64(1)<<bits - 1
	if spread>>shift == 0 {
		// One bucket: nothing to distribute. And if it is one cohort too
		// (immediate delivery, fixed-delay profiles), list order is already
		// delivery order.
		for i, w := range words {
			dst[i] = K((w>>fanSeqBits-minDelay)<<bits | w&mask)
		}
		if spread == 0 {
			return dst, len(dst)
		}
		return dst, sortRun(dst, 0, bits+shift)
	}
	var at [fanBuckets]uint16 // per bucket: its size, then its next free index
	for _, w := range words {
		at[(w>>fanSeqBits-minDelay)>>shift]++
	}
	sum := uint16(0)
	for b := range at[:spread>>shift+1] {
		at[b], sum = sum, sum+at[b]
	}
	for _, w := range words {
		d := w>>fanSeqBits - minDelay
		b := d >> shift
		dst[at[b]] = K(d<<bits | w&mask)
		at[b]++
	}
	return dst, sortRun(dst, 0, bits+shift)
}

// sortRun sorts the bucket of h that starts at index from — the run of
// entries sharing its bucket number, entry >> sh — and returns its end.
func sortRun[K fanKey](h []K, from int, sh uint8) int {
	bucket := h[from] >> sh
	end := from + 1
	for ; end < len(h) && h[end]>>sh == bucket; end++ {
		if end-from == fanLongRun {
			for end < len(h) && h[end]>>sh == bucket {
				end++
			}
			slices.Sort(h[from:end])
			break
		}
		k := h[end]
		j := end
		for ; j > from && h[j-1] > k; j-- {
			h[j] = h[j-1]
		}
		h[j] = k
	}
	return end
}

// load stores on the empty fanout f the arrivals of a broadcast to the list
// to, sent at instant now: words holds packFan's words for them, in list
// order, and minDelay/maxDelay bound their delay fields. It returns the first
// arrival instant. The entry slice is sized exactly, here, where the form is
// known: a fanout whose tail arrivals outlive the run never returns to the
// pool, so an append-doubling growth chain would be paid — allocation, copy,
// and write barrier — once per broadcast, not amortized across reuses.
func (f *fanout) load(words []uint64, to []model.ProcID, now vclock.Time, minDelay, maxDelay uint64) vclock.Time {
	f.to = to
	f.base = now + vclock.Time(minDelay)
	f.bits = uint8(bits.Len(uint(len(to) - 1)))
	spread := maxDelay - minDelay
	lgBuckets := max(0, min(bits.Len(uint(len(words)/fanRun)), bits.Len(fanBuckets))-1)
	f.shift = uint8(max(0, bits.Len64(spread)-lgBuckets))
	var sorted int
	if spread>>(32-f.bits) == 0 {
		f.keys, sorted = bucketFan(f.keys, words, minDelay, spread, f.bits, f.shift)
	} else {
		f.wide, sorted = bucketFan(f.wide, words, minDelay, spread, f.bits, f.shift)
	}
	f.next, f.sorted = 0, int32(sorted)
	return f.base
}

// Fire delivers every arrival due at the current instant, then either
// reschedules for the next instant or returns to the pool.
func (f *fanout) Fire() {
	var next vclock.Time
	if len(f.wide) != 0 {
		next = deliverDue(f, f.wide)
	} else {
		next = deliverDue(f, f.keys)
	}
	if next >= 0 {
		f.reschedule(f.base + next)
		return
	}
	f.release()
}

// deliverDue puts the messages of the cohort at f.next of f's entries h —
// the entries sharing the least undelivered delay — sorting the following
// bucket when the deliveries reach it. It returns the delay (from f.base) of
// the next cohort, or a negative one when h is exhausted.
func deliverDue[K fanKey](f *fanout, h []K) vclock.Time {
	nw, list, bits := f.nw, f.to, f.bits
	i, sorted := int(f.next), int(f.sorted)
	due := h[i] >> bits
	for {
		to := list[h[i]&(1<<bits-1)]
		if !nw.boxClosed(to) { // closed after send: Put would drop it anyway
			nw.vboxes[to].Put(Message{From: f.from, To: to, Payload: f.payload})
		}
		i++
		if i == len(h) {
			return -1
		}
		if i == sorted {
			sorted = sortRun(h, i, bits+f.shift)
			f.sorted = int32(sorted)
		}
		if d := h[i] >> bits; d != due {
			f.next = int32(i)
			return vclock.Time(d)
		}
	}
}

// reschedule re-arms the fanout for its next arrival instant. A shard
// fanout lives on its shard's wheel — one reschedule per distinct arrival
// instant per in-flight broadcast is exactly the churn the shard wheels
// exist to absorb; routing it through the main wheel would multiply that
// wheel's bucket depth by the shard count. The (at, seq) total order is
// identical either way.
func (f *fanout) reschedule(at vclock.Time) {
	if f.shard >= 0 {
		f.nw.opts.sched.AtEventShard(int(f.shard), at, f)
		return
	}
	f.nw.opts.sched.AtEvent(at, f)
}

// release returns the exhausted fanout to its pool: the owning shard's
// freelist or the network-global one.
func (f *fanout) release() {
	f.payload = nil
	f.to = nil
	f.keys = f.keys[:0]
	f.wide = f.wide[:0]
	if f.shard >= 0 {
		sh := &f.nw.shards[f.shard]
		sh.freeFan = append(sh.freeFan, f)
		return
	}
	f.nw.freeFanouts = append(f.nw.freeFanouts, f)
}

// getDelivery pops a pooled delivery event or makes one.
func (nw *Network) getDelivery() *delivery {
	if k := len(nw.freeDeliveries); k > 0 {
		d := nw.freeDeliveries[k-1]
		nw.freeDeliveries = nw.freeDeliveries[:k-1]
		return d
	}
	return &delivery{nw: nw, shard: -1}
}

// getFanout pops a pooled fanout event or makes one; load sizes its entries.
func (nw *Network) getFanout() *fanout {
	if k := len(nw.freeFanouts); k > 0 {
		f := nw.freeFanouts[k-1]
		nw.freeFanouts = nw.freeFanouts[:k-1]
		return f
	}
	return &fanout{nw: nw, shard: -1}
}

// New returns a network connecting processes 0 … n-1 on the scheduler
// given by WithScheduler.
func New(n int, opts ...Option) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("netsim: need at least one process, got %d", n)
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.sched == nil {
		return nil, fmt.Errorf("netsim: no scheduler (WithScheduler is required)")
	}
	o.resolvePolicy()
	nw := &Network{
		n:         n,
		opts:      o,
		rng:       rand.New(rand.NewPCG(o.seed, o.seed^0xda3e39cb94b95bdb)),
		everyone:  make([]model.ProcID, n),
		vboxes:    make([]*mailbox.Virtual[Message], n),
		closedBox: make([]uint64, (n+63)/64),
	}
	for i := range nw.everyone {
		nw.everyone[i] = model.ProcID(i)
		nw.vboxes[i] = mailbox.NewVirtual[Message]()
	}
	if sc := o.sched.ShardCount(); sc > 0 && o.delays() {
		// The scheduler is sharded and sends have per-recipient delay
		// work worth fanning out: engage the sharded expansion path
		// (expand.go) — per-recipient bursts always, SendAll's
		// packed-key fanouts only while recipient ids fit the key. The
		// predicate reads only topology size and the configured policy.
		nw.initShards(sc)
		nw.fanOK = n <= maxPackFan
	}
	return nw, nil
}

// Bind attaches the process that consumes p's inbox.
func (nw *Network) Bind(p model.ProcID, proc *vclock.Proc) {
	nw.vboxes[p].Bind(proc)
}

// N returns the number of connected processes.
func (nw *Network) N() int { return nw.n }

// delayFor draws the transit delay of m, sent now, on the network's own
// stream (the scheduler's execution token serializes all network calls, so
// the RNG needs no lock). A network that is shut down, or has no delay
// policy, delivers immediately and draws nothing.
func (nw *Network) delayFor(m Message) time.Duration {
	if nw.closed || !nw.opts.delays() {
		return 0
	}
	return nw.opts.draw(nw.rng, time.Duration(nw.opts.sched.Now()), m)
}

// post schedules m's pooled delivery event at virtual instant at. Zero-delay
// messages still travel through the event queue, so delivery order is the
// deterministic (time, seq) order and every receive is a scheduling point.
func (nw *Network) post(at vclock.Time, m Message) {
	ev := nw.getDelivery()
	ev.box = nw.vboxes[m.To]
	ev.msg = m
	nw.opts.sched.AtEvent(at, ev)
}

// deliver transports one message (already counted) with transit delay d: a
// pooled delivery event d nanoseconds of virtual time from now.
func (nw *Network) deliver(m Message, d time.Duration) {
	nw.post(nw.opts.sched.Now()+vclock.Time(d), m)
}

// Send transmits payload from one process to another. The send is an atomic
// step for the sender: it never blocks and the message is guaranteed to be
// delivered (unless the receiver has terminated, in which case it would
// never have been consumed anyway).
func (nw *Network) Send(from, to model.ProcID, payload any) {
	if int(to) < 0 || int(to) >= nw.n {
		return
	}
	if nw.opts.counters != nil {
		nw.opts.counters.AddMsgsSent(1)
	}
	m := Message{From: from, To: to, Payload: payload}
	nw.deliver(m, nw.delayFor(m))
}

// packFan is the one draw → skip-closed → overflow → pack loop behind every
// batched fanout: for each in-range recipient of to it draws a delay from
// rng (sent at instant at), skips those whose bit is set in the closed
// bitmap — the live one, or a job's send-time snapshot — and appends the
// packed (delay<<fanSeqBits)|position-in-to word to keys. An arrival the word
// cannot hold — a ≥13-virtual-day draw, or any at all once recipient ids or
// list positions outgrow fanSeqBits — is handed to lone with its arrival
// instant, to ride a delivery event of its own. Returns the words, in list
// order, and the least and largest packed delay.
func (nw *Network) packFan(keys []uint64, rng *rand.Rand, at vclock.Time, from model.ProcID, payload any,
	to []model.ProcID, closed []uint64, lone func(vclock.Time, Message)) (_ []uint64, minDelay, maxDelay uint64) {
	limit := maxPackWait
	if nw.n > maxPackFan || len(to) > maxPackFan {
		limit = 0
	}
	minDelay = ^uint64(0)
	for i, p := range to {
		if int(p) < 0 || int(p) >= nw.n {
			continue
		}
		m := Message{From: from, To: p, Payload: payload}
		// The delay is drawn even for recipients that can no longer
		// receive, so the RNG stream — and with it every later draw of
		// the run — is independent of who has terminated.
		d := nw.opts.draw(rng, time.Duration(at), m)
		if closed[p>>6]&(1<<(uint(p)&63)) != 0 {
			// The box would drop the message at arrival anyway (Put on a
			// closed inbox is a no-op); skipping the event here spares
			// the scheduler the decision-storm tail, where every process
			// rebroadcasts DECIDE to mostly-terminated peers.
			continue
		}
		if vclock.Time(d) >= limit {
			lone(at+vclock.Time(d), m)
			continue
		}
		w := uint64(d)
		minDelay = min(minDelay, w)
		maxDelay = max(maxDelay, w)
		keys = append(keys, w<<fanSeqBits|uint64(i))
	}
	return keys, minDelay, maxDelay
}

// sendFan transmits payload to recipients (all already counted; those out
// of range are skipped) as one batched fanout: a single pooled scheduler
// event per distinct arrival instant. Delay draws happen in recipient
// order, so the RNG stream matches the equivalent Send sequence. The fanout
// reads recipients until its last arrival, so the list must not change again.
func (nw *Network) sendFan(from model.ProcID, payload any, recipients []model.ProcID) {
	if nw.closed {
		return // shut down: every inbox is closed, nothing can arrive
	}
	now := nw.opts.sched.Now()
	keys, minDelay, maxDelay := nw.packFan(nw.packKeys[:0], nw.rng, now, from, payload, recipients, nw.closedBox, nw.post)
	nw.packKeys = keys[:0]
	if len(keys) == 0 {
		return
	}
	f := nw.getFanout()
	f.from = from
	f.payload = payload
	nw.opts.sched.AtEvent(f.load(keys, recipients, now, minDelay, maxDelay), f)
}

// SendAll transmits payload from one process to every process (including
// the sender) — the batched all-to-all delivery path. It is semantically a
// Send per destination, but it schedules one fanout event
// per distinct arrival instant instead of one event per message, and
// reuses pooled envelopes: the Θ(n²) exchange pattern stops costing Θ(n²)
// scheduler allocations (DESIGN.md §10). Unlike Broadcast it does not
// count a broadcast macro-operation.
func (nw *Network) SendAll(from model.ProcID, payload any) {
	if nw.opts.counters != nil {
		nw.opts.counters.AddMsgsSent(int64(nw.n))
	}
	if nw.shards != nil && nw.fanOK && !nw.closed {
		nw.appendFan(from, payload)
		return
	}
	nw.sendFan(from, payload, nw.everyone)
}

// Broadcast implements the paper's broadcast(msg) macro-operation: a
// shortcut for sending msg to every process, including the sender. It
// rides the batched SendAll path.
func (nw *Network) Broadcast(from model.ProcID, payload any) {
	if nw.opts.counters != nil {
		nw.opts.counters.AddBroadcast()
	}
	nw.SendAll(from, payload)
}

// BroadcastSubset delivers payload only to the given recipients — the
// semantics of a broadcast interrupted by the sender's crash (paper §II-A:
// "an arbitrary subset of processes (possibly empty) receive the message").
func (nw *Network) BroadcastSubset(from model.ProcID, payload any, recipients []model.ProcID) {
	if nw.opts.counters != nil {
		nw.opts.counters.AddBroadcast()
		sent := int64(0)
		for _, to := range recipients {
			if int(to) >= 0 && int(to) < nw.n {
				sent++
			}
		}
		nw.opts.counters.AddMsgsSent(sent)
	}
	// A copy: the list is the caller's, and a crash-cut broadcast happens at
	// most once per process per run.
	nw.sendFan(from, payload, slices.Clone(recipients))
}

// Receive parks p's coroutine until a message for p arrives, p's inbox
// closes and drains, or the scheduler aborts the run. The boolean reports
// whether a message was returned.
func (nw *Network) Receive(p model.ProcID) (Message, bool) {
	m, ok := nw.vboxes[p].Get()
	if ok && nw.opts.counters != nil {
		nw.opts.counters.AddMsgsDelivered(1)
	}
	return m, ok
}

// ReceiveNow is the batched-drain receive of inline handler bodies: it
// returns the next queued message for p without parking. ok = false means the inbox is currently
// empty; closed additionally reports that no further message can ever
// arrive (the inbox was closed and has drained) — the wait-free analogue
// of Receive returning false. A handler invocation calls ReceiveNow until
// ok is false, draining the whole ring inbox under a single execution-token
// hold: one handler invocation per distinct arrival instant, instead of
// one coroutine rendezvous per message. Deliveries are counted exactly
// like Receive — at consumption — so both body forms report identical
// MsgsDelivered.
func (nw *Network) ReceiveNow(p model.ProcID) (m Message, ok, closed bool) {
	m, ok, closed = nw.vboxes[p].TryGetOrClosed()
	if ok && nw.opts.counters != nil {
		nw.opts.counters.AddMsgsDelivered(1)
	}
	return m, ok, closed
}

// CloseInbox marks process p as terminated: its queued messages remain
// drainable but new messages to it are dropped.
func (nw *Network) CloseInbox(p model.ProcID) {
	nw.vboxes[p].Close()
	nw.closedBox[p>>6] |= 1 << (uint(p) & 63)
}

// boxClosed reports whether p's inbox is closed, from the network's
// bitmap rather than the mailbox itself: the send fan-out checks every
// recipient, and reading one bool per mailbox struct touches n scattered
// cache lines per broadcast where the bitmap needs n/512.
func (nw *Network) boxClosed(to model.ProcID) bool {
	return nw.closedBox[to>>6]&(1<<(uint(to)&63)) != 0
}

// Shutdown closes every inbox. The network must not be used after Shutdown.
func (nw *Network) Shutdown() {
	nw.closed = true
	for i, b := range nw.vboxes {
		b.Close()
		nw.closedBox[i>>6] |= 1 << (uint(i) & 63)
	}
}
