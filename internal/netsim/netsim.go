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
	"math/rand/v2"
	"sync/atomic"
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

// DelayFn computes the transit delay of a message. The caller serializes
// rng, so it may use it without synchronization.
type DelayFn func(rng *rand.Rand, m Message) time.Duration

// TimedDelayFn computes the transit delay of a message given the send
// instant `now` on the virtual clock. The extra argument is what lets
// delay policies depend on the run's history, e.g. a network partition
// that heals at a fixed virtual instant. Like DelayFn it may use rng
// without synchronization.
type TimedDelayFn func(now time.Duration, rng *rand.Rand, m Message) time.Duration

// options collects network construction parameters.
type options struct {
	seed     uint64
	counters *metrics.Counters
	sched    *vclock.Scheduler

	// The delay policy: at most one of timedFn, delayFn and the uniform
	// band is set once New has settled their precedence (resolvePolicy).
	timedFn         TimedDelayFn
	delayFn         DelayFn
	uniform         bool
	uniMin, uniSpan time.Duration
}

// resolvePolicy settles, once, which configured delay policy is in force —
// whatever order the options came in: a timed function beats a delay
// function beats the uniform band. Every reader after New (draw, the
// lookahead hint of openWindow, the sharding predicate) sees one policy.
func (o *options) resolvePolicy() {
	switch {
	case o.timedFn != nil:
		o.delayFn, o.uniform = nil, false
	case o.delayFn != nil:
		o.uniform = false
	}
}

// delays reports whether any delay policy is configured.
func (o *options) delays() bool {
	return o.timedFn != nil || o.delayFn != nil || o.uniform
}

// draw returns the transit delay of m, sent at instant at, under the
// configured policy, drawing from rng — the one delay draw behind Send,
// every fanout and every expansion shard. The caller serializes rng.
func (o *options) draw(rng *rand.Rand, at time.Duration, m Message) time.Duration {
	var d time.Duration
	switch {
	case o.timedFn != nil:
		d = o.timedFn(at, rng, m)
	case o.delayFn != nil:
		d = o.delayFn(rng, m)
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
// [min, max]. A zero max keeps the default immediate delivery.
func WithUniformDelay(min, max time.Duration) Option {
	return func(o *options) {
		o.uniform, o.uniMin, o.uniSpan = max > 0, min, max-min
	}
}

// WithDelayFn installs an arbitrary delay policy (e.g. adversarial
// per-recipient skew). It overrides WithUniformDelay, in either option
// order.
func WithDelayFn(fn DelayFn) Option {
	return func(o *options) { o.delayFn = fn }
}

// WithTimedDelayFn installs a clock-aware delay policy — the compile
// target of the public API's NetworkProfiles (per-link skew matrices,
// asymmetric cluster WANs, partitions healing at an instant). It overrides
// WithUniformDelay and WithDelayFn, in either option order.
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
	closed atomic.Bool

	// Event pools (guarded by the scheduler's execution token, like
	// everything else here). Delivery and fanout events cycle through
	// these freelists instead of allocating one closure plus one heap box
	// per message — the zero-alloc delivery path.
	freeDeliveries []*delivery
	freeFanouts    []*fanout
	everyone       []model.ProcID // the 0 … n-1 recipient list (SendAll); built once in New
	sortKeys       []uint64       // packed-key build/sort scratch (sendFan)
	sortAlt        []uint64       // radix-sort ping-pong scratch (sortFanKeys)
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
// freelist (worker-filled, token-drained — see sendShard), everything else
// through the network-global one.
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
		sh.recDel = append(sh.recDel, d)
	} else {
		d.nw.freeDeliveries = append(d.nw.freeDeliveries, d)
	}
	box.Put(msg)
}

// fanout is a pooled batched-broadcast event: one broadcast
// schedules a single event that materializes its deliveries lazily —
// arrivals are sorted by instant, each firing delivers the cohort due now
// and reschedules the event at the next distinct instant. A broadcast with
// g distinct arrival instants costs g scheduler events instead of n, and
// zero allocations once the pool is warm.
//
// Arrivals are sorted at send time as packed uint64 words —
// (delay << fanSeqBits) | recipient — in network-level scratch (hot across
// broadcasts), then stored on the fanout delta-compressed: each uint32
// entry is (gap to the previous arrival << fanSeqBits) | recipient, with
// f.base tracking the absolute instant of the next undelivered arrival.
// Compression is lossless (gaps sum back to the exact drawn delays) and
// matters because a broadcast's undelivered tail keeps the fanout live for
// the full delay span: at n=1024 thousands of fanouts are in flight at
// once, and 4-byte entries halve that resident set — the Fire path is
// cache-miss-bound on it. Arrivals whose gap overflows 32-fanSeqBits bits
// (> half a virtual millisecond between consecutive sorted arrivals) fall
// back to the uncompressed key64 form; a fanout is in that form exactly
// while key64 is non-empty, and both slices keep their capacity across
// pool cycles. Recipients sharing an arrival instant (gap 0) deliver in
// recipient-list order (the sort is stable); each recipient appears at most
// once per fanout, so the tie-break only decides mailbox wake order.
type fanout struct {
	nw      *Network
	from    model.ProcID
	payload any
	base    vclock.Time // instant of the arrival at index next (key32 form) or the send instant (key64 form)
	key32   []uint32    // (gap<<fanSeqBits)|recipient; gap relative to the previous entry
	key64   []uint64    // fallback: (delay<<fanSeqBits)|recipient, delay relative to base
	next    int         // index of the next entry to deliver
	shard   int32       // owning shard pool, -1 for the network-global pool
}

// Packed-key bounds: recipient ids need fanSeqBits, leaving 50 bits of
// delay — about 13 virtual days. Networks wider than 1<<fanSeqBits
// processes, or a delay draw beyond the bound, fall back to one pooled
// per-message delivery event (correct, just not batched).
const (
	fanSeqBits  = 13
	maxPackFan  = 1 << fanSeqBits
	maxPackWait = vclock.Time(1) << (63 - fanSeqBits)
)

// LSD radix geometry: 12-bit digits sort the common case — sub-4ms delay
// plus 13 recipient bits ≈ 35 significant bits — in three linear passes.
const (
	radixBits = 12
	radixSize = 1 << radixBits
)

// radixSortU64 sorts keys by LSD counting passes on the digits from lowBit
// up, using *alt as the ping-pong buffer; bits below lowBit are ignored by
// the ordering but ride along, and keys with equal sorted digits keep
// their input order (each pass is a stable counting sort). Passing the
// delay field's offset as lowBit sorts a fanout by arrival instant with
// the append position — recipient order — as the tie-break, without
// spending a radix pass on the recipient bits. Returns the sorted slice
// (which may be *alt's backing array; the other array is left in *alt).
func radixSortU64(keys []uint64, alt *[]uint64, maxKey uint64, lowBit uint) []uint64 {
	if cap(*alt) < len(keys) {
		*alt = make([]uint64, len(keys))
	}
	tmp := (*alt)[:len(keys)]
	var counts [radixSize]int32
	for shift := lowBit; maxKey>>shift != 0; shift += radixBits {
		counts = [radixSize]int32{}
		for _, k := range keys {
			counts[(k>>shift)&(radixSize-1)]++
		}
		sum := int32(0)
		for i := range counts {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for _, k := range keys {
			d := (k >> shift) & (radixSize - 1)
			tmp[counts[d]] = k
			counts[d]++
		}
		keys, tmp = tmp, keys
	}
	*alt = tmp[:0]
	return keys
}

// fanSortCrossover is the fanout size from which sortFanKeys takes the
// radix sort. It is read off BenchmarkSendFanSort (2.1 GHz Xeon, go1.24,
// delays uniform over 200 µs or 2 ms — the span does not matter): clearing
// and prefix-summing 4096 counters twice gives the radix sort a floor of
// ≈6 µs whatever k is (5.8 µs at k=7, 6.5 at 128, 7.1 at 255, 12 at 1024),
// while the insertion sort costs 0.02 µs at k=7, 0.3 at 32, 1.2 at 64, 4.2
// at 128, 15 at 255 and 200 at 1024 — the curves cross near k=160. 128
// leaves the insertion sort level or ahead also in a build whose code
// alignment runs the radix loop some 40 % faster (DESIGN.md §10).
const fanSortCrossover = 128

// sortFanKeys is the one sort of the unsharded fanout path: it orders packed
// (delay<<fanSeqBits)|recipient keys by delay, keys of equal delay keeping
// their input order — the recipient-list order, ascending or not. maxDelay
// bounds the delay fields. The algorithm is a function of len(keys) alone: a
// stable insertion sort below fanSortCrossover, the LSD radix sort (whose
// ping-pong buffer is *alt) from there on. Both produce the same permutation,
// so the choice is invisible to every schedule. Returns the sorted slice.
func sortFanKeys(keys []uint64, alt *[]uint64, maxDelay uint64) []uint64 {
	if len(keys) >= fanSortCrossover {
		return radixSortU64(keys, alt, maxDelay<<fanSeqBits, fanSeqBits)
	}
	insertionSortByDelay(keys)
	return keys
}

// insertionSortByDelay sorts keys in place by their delay field, stably.
func insertionSortByDelay(keys []uint64) {
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i
		for j > 0 && keys[j-1]>>fanSeqBits > k>>fanSeqBits {
			keys[j] = keys[j-1]
			j--
		}
		keys[j] = k
	}
}

// load stores the sorted arrival keys of a broadcast sent at instant now
// (delays relative to it) on the empty fanout f — delta-compressed, or
// uncompressed when a gap between consecutive arrivals overflows the
// compressed form — and returns the first arrival instant.
func (f *fanout) load(keys []uint64, now vclock.Time) vclock.Time {
	prev := keys[0] >> fanSeqBits
	first := now + vclock.Time(prev)
	f.base = first
	for _, k := range keys {
		gap := (k >> fanSeqBits) - prev
		if gap >= 1<<(32-fanSeqBits) {
			// A consecutive-arrival gap too wide for the compressed form
			// (> ~0.5 virtual ms): keep the sorted keys uncompressed.
			f.key32 = f.key32[:0]
			f.key64 = append(f.key64, keys...)
			f.base = now
			break
		}
		prev = k >> fanSeqBits
		f.key32 = append(f.key32, uint32(gap)<<fanSeqBits|uint32(k&(maxPackFan-1)))
	}
	return first
}

// Fire delivers every arrival due at the current instant, then either
// reschedules for the next instant or returns to the pool.
func (f *fanout) Fire() {
	if len(f.key64) != 0 {
		f.fire64()
		return
	}
	for {
		k := f.key32[f.next]
		to := model.ProcID(k & (maxPackFan - 1))
		if !f.nw.boxClosed(to) { // closed after send: Put would drop it anyway
			f.nw.vboxes[to].Put(Message{From: f.from, To: to, Payload: f.payload})
		}
		f.next++
		if f.next < len(f.key32) {
			if gap := f.key32[f.next] >> fanSeqBits; gap != 0 {
				f.base += vclock.Time(gap)
				f.reschedule(f.base)
				return
			}
			continue
		}
		break
	}
	f.release()
}

// fire64 is Fire for the uncompressed fallback form.
func (f *fanout) fire64() {
	k := f.key64[f.next]
	due := k >> fanSeqBits
	for {
		to := model.ProcID(k & (maxPackFan - 1))
		if !f.nw.boxClosed(to) {
			f.nw.vboxes[to].Put(Message{From: f.from, To: to, Payload: f.payload})
		}
		f.next++
		if f.next < len(f.key64) {
			k = f.key64[f.next]
			if k>>fanSeqBits != due {
				f.reschedule(f.base + vclock.Time(k>>fanSeqBits))
				return
			}
			continue
		}
		break
	}
	f.release()
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
// recycle list (merged back into the worker-side freelist when the next
// window opens) or the network-global freelist. It runs under the
// execution token, like every Fire.
func (f *fanout) release() {
	f.payload = nil
	f.key32 = f.key32[:0]
	f.key64 = f.key64[:0]
	f.next = 0
	if f.shard >= 0 {
		sh := &f.nw.shards[f.shard]
		sh.recFan = append(sh.recFan, f)
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

// getFanout pops a pooled fanout event or makes one, with room for up to
// want arrivals. Sizing the entry slice exactly up front matters: a fanout
// whose tail arrivals outlive the run never returns to the pool, so an
// append-doubling growth chain would be paid — allocation, copy, and write
// barrier — once per broadcast, not amortized across reuses.
func (nw *Network) getFanout(want int) *fanout {
	if k := len(nw.freeFanouts); k > 0 {
		f := nw.freeFanouts[k-1]
		nw.freeFanouts = nw.freeFanouts[:k-1]
		if cap(f.key32) < want {
			f.key32 = make([]uint32, 0, want)
		}
		return f
	}
	return &fanout{nw: nw, shard: -1, key32: make([]uint32, 0, want)}
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
		// predicate reads only topology size and the configured policy,
		// so engagement — like everything downstream of it — is
		// independent of the worker count.
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
	if nw.closed.Load() || !nw.opts.delays() {
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
// packed (delay<<fanSeqBits)|recipient key to keys. An arrival the key
// cannot hold — a ≥13-virtual-day draw, or any at all once recipient ids
// outgrow fanSeqBits — is handed to lone with its arrival instant, to ride
// a delivery event of its own. Returns the keys and the largest packed
// delay.
func (nw *Network) packFan(keys []uint64, rng *rand.Rand, at vclock.Time, from model.ProcID, payload any,
	to []model.ProcID, closed []uint64, lone func(vclock.Time, Message)) ([]uint64, uint64) {
	limit := maxPackWait
	if nw.n > maxPackFan {
		limit = 0
	}
	maxDelay := uint64(0)
	for _, p := range to {
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
		if w > maxDelay {
			maxDelay = w
		}
		keys = append(keys, w<<fanSeqBits|uint64(p))
	}
	return keys, maxDelay
}

// sendFan transmits payload to recipients (all already counted; those out
// of range are skipped) as one batched fanout: a single pooled scheduler
// event per distinct arrival instant. Delay draws happen in recipient
// order, so the RNG stream matches the equivalent Send sequence.
func (nw *Network) sendFan(from model.ProcID, payload any, recipients []model.ProcID) {
	if nw.closed.Load() {
		return // shut down: every inbox is closed, nothing can arrive
	}
	now := nw.opts.sched.Now()
	keys, maxDelay := nw.packFan(nw.sortKeys[:0], nw.rng, now, from, payload, recipients, nw.closedBox, nw.post)
	if len(keys) > 0 {
		keys = sortFanKeys(keys, &nw.sortAlt, maxDelay)
		f := nw.getFanout(len(keys))
		f.from = from
		f.payload = payload
		nw.opts.sched.AtEvent(f.load(keys, now), f)
	}
	nw.sortKeys = keys[:0] // after the sort: it may have swapped buffers with sortAlt
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
	if nw.shards != nil && nw.fanOK && !nw.closed.Load() {
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
	nw.sendFan(from, payload, recipients)
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
	nw.closed.Store(true)
	for i, b := range nw.vboxes {
		b.Close()
		nw.closedBox[i>>6] |= 1 << (uint(i) & 63)
	}
}
