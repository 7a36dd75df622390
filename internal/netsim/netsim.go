// Package netsim simulates the message-passing half of the hybrid model
// (paper §II-A): every pair of processes is joined by a reliable
// asynchronous channel — no message is corrupted, duplicated or lost, and
// transit is arbitrary but finite. Broadcast is not reliable: a sender that
// crashes mid-broadcast reaches an arbitrary subset (BroadcastSubset).
//
// A Network lives on one vclock scheduler (WithScheduler): a message in
// transit is a message event, a broadcast one lazily ordered fanout event,
// and a sharded scheduler's sends are expanded per flush window (expand.go).
// The design — delay policies, inboxes, closure epochs, fanouts, head and
// tail loads, window expansion — is DESIGN.md §4.
package netsim

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"time"

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
// configured policy, drawing from src, which rng wraps — the one delay draw
// behind Send, every fanout and every expansion shard. A timed policy gets
// rng; the uniform band draws from src itself (uint64n), the same numbers
// rng.Int64N would draw without its Source interface. The caller serializes
// the stream.
func (o *options) draw(src *rand.PCG, rng *rand.Rand, at time.Duration, m Message) time.Duration {
	var d time.Duration
	switch {
	case o.timedFn != nil:
		d = o.timedFn(at, rng, m)
	case o.uniform:
		d = o.uniMin
		if o.uniSpan > 0 {
			d += time.Duration(uint64n(src, rng, uint64(o.uniSpan)+1))
		}
	}
	if d < 0 {
		d = 0
	}
	return d
}

// uint64n returns a uniform draw from [0, n) off src, which rng wraps: the
// draw, and the words it takes off the stream, are those of
// rng.Uint64N(n) — math/rand/v2's power-of-two mask, and Lemire's
// multiply-and-reject otherwise — with the generator's methods called
// directly. On 32-bit platforms, where the library takes a 32-bit path for
// small n, it calls the library.
func uint64n(src *rand.PCG, rng *rand.Rand, n uint64) uint64 {
	if bits.UintSize == 32 {
		return rng.Uint64N(n)
	}
	if n&(n-1) == 0 {
		return src.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(src.Uint64(), n)
	if lo < n {
		hi = lemireRetry(src, n, hi, lo)
	}
	return hi
}

// lemireRetry finishes a multiply-and-reject draw from [0, n) whose first
// product hi:lo had lo < n: it draws again while lo is below the rejection
// threshold, and returns the accepted high word.
func lemireRetry(src *rand.PCG, n, hi, lo uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(src.Uint64(), n)
	}
	return hi
}

// Option customizes a Network. It is a plain value, not a closure, so
// configuring a run's network allocates nothing. The zero Option changes
// nothing.
type Option struct {
	kind     optionKind
	seed     uint64
	min, max time.Duration
	counters *metrics.Counters
	sched    *vclock.Scheduler
	timedFn  TimedDelayFn
}

// optionKind names the setting an Option carries.
type optionKind uint8

const (
	optNone optionKind = iota
	optSeed
	optUniform
	optTimed
	optCounters
	optScheduler
)

// IsZero reports whether o is the zero Option, which changes nothing — what
// a profile compiles to when it delivers immediately.
func (o Option) IsZero() bool { return o.kind == optNone }

// apply sets what opt carries.
func (o *options) apply(opt Option) {
	switch opt.kind {
	case optSeed:
		o.seed = opt.seed
	case optUniform:
		o.uniform, o.uniMin, o.uniSpan = opt.max > 0, opt.min, opt.max-opt.min
	case optTimed:
		o.timedFn = opt.timedFn
	case optCounters:
		o.counters = opt.counters
	case optScheduler:
		o.sched = opt.sched
	}
}

// WithSeed fixes the seed of the delay RNG, making delay draws reproducible.
func WithSeed(seed uint64) Option { return Option{kind: optSeed, seed: seed} }

// WithUniformDelay draws each message's transit time uniformly from
// [min, max] — the compile target of protocol.Uniform. On a sharded
// scheduler min also lets each send window stay open for min of virtual
// time (openWindow). A zero max keeps the default immediate delivery.
func WithUniformDelay(min, max time.Duration) Option {
	return Option{kind: optUniform, min: min, max: max}
}

// WithTimedDelayFn installs a clock-aware delay policy — the compile
// target of the public API's non-uniform NetworkProfiles (per-link skew
// matrices, asymmetric cluster WANs, partitions healing at an instant). It
// overrides WithUniformDelay, in either option order.
func WithTimedDelayFn(fn TimedDelayFn) Option { return Option{kind: optTimed, timedFn: fn} }

// WithCounters wires the network to a metrics sink; sends and deliveries
// are counted there.
func WithCounters(c *metrics.Counters) Option { return Option{kind: optCounters, counters: c} }

// WithScheduler attaches the network to its discrete-event scheduler
// (required): message transit is a scheduled delivery event at a virtual
// timestamp (now + delay) that wakes the recipient's process. Each
// consumer must be attached with Bind or BindInbox before its first
// delivery, and all network calls must come from scheduler-controlled code
// (handlers or event callbacks).
func WithScheduler(s *vclock.Scheduler) Option { return Option{kind: optScheduler, sched: s} }

// Network is the simulated fully connected reliable asynchronous network
// for n processes. The scheduler's single execution token serializes every
// call.
//
// A network outlives its run: Shutdown stores it in its scheduler's keep slot
// (vclock.Scheduler.Keep), and when the driver recycles the scheduler, the
// next New on it takes the network back (recycle) instead of building one.
type Network struct {
	n      int
	boxes  []binding // per process: its inbox and consumer (Bind, BindInbox)
	own    []Inbox   // the inboxes Bind gives; nil while none was asked for
	opts   options
	src    rand.PCG   // the delay stream, reseeded by New
	rng    *rand.Rand // over src
	closed bool       // set by Shutdown, once the run is over

	// The fanout pool (guarded by the scheduler's execution token, like
	// everything else here): fanout events cycle through this freelist
	// instead of allocating per broadcast, and fanouts records every fanout
	// ever made, so that recycle can return the ones still in flight when a
	// run ended. A single message needs no pooled object: it rides its own
	// message event.
	freeFanouts []*fanout
	fanouts     []*fanout
	everyone    []model.ProcID // the 0 … n-1 recipient list (SendAll); built in New
	packKeys    []uint64       // packed-word scratch (sendFan, loadTail), hot across broadcasts

	// Closure, the one record of it: closures counts the closed inboxes,
	// and closedAt[p] is the count right after p's closed (its closure
	// epoch), epochOpen while it is open. Closure is monotone within a run,
	// so a send that records closures as its epoch finds "closed at the
	// send" in one compare, closedAt[p] <= epoch, whenever it is asked.
	closedAt []uint32
	closures uint32

	// Sharded expansion state (expand.go); shards is empty unless the
	// scheduler is sharded and a delay policy makes expansion worth fanning
	// out, and keeps its storage across runs (recycle).
	shards      []sendShard
	shardOf     []uint8 // recipient → owning shard (len n)
	seqPerShard uint64  // sequence numbers one shard may use per broadcast
	fanOK       bool    // SendAll may use the packed-key fanouts (n fits the key)
	win         window  // the current flush window's expansion job

	freePayloads []any // BurstBuilder payload objects (GrabPayload, RecyclePayload)
}

// deliverer is a Network as its scheduler's vclock.Deliverer: the conversion
// allocates nothing and keeps Deliver and Retire off the Network's API.
type deliverer Network

// Deliver puts a message whose event popped into its recipient's inbox.
func (d *deliverer) Deliver(from, to int, payload any) {
	nw := (*Network)(d)
	if p := model.ProcID(to); !nw.boxClosed(p) {
		nw.put(p, int32(from), payload)
	}
}

// Retire closes the inbox of a process whose handler reported it finished.
func (d *deliverer) Retire(p int) { (*Network)(d).CloseInbox(model.ProcID(p)) }

// put appends a message to to's open inbox and wakes its consumer.
func (nw *Network) put(to model.ProcID, from int32, payload any) {
	b := &nw.boxes[to]
	b.box.put(from, payload)
	if b.proc != nil {
		b.proc.Wake()
	}
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
//
// A sharded broadcast under the uniform band stores less still: only its
// head, the arrivals before the network's head cut (options.headCut). Its
// tail is not stored at all but redrawn from the shard stream's state saved
// before the stripe's first draw, when the head drains (loadTail) — which,
// under the one-for-all rule, a fanout almost never does before its run ends.
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

	// The tail still to load, if tail is set: its arrivals are the draws
	// from src, in list order, at or past the head cut, to recipients open
	// at the send instant at (closure epoch epoch).
	tail  bool
	epoch uint32
	at    vclock.Time
	src   rand.PCG
}

// Packed-key bounds of packFan's scratch words, (delay << fanSeqBits) |
// position: positions need fanSeqBits, leaving 50 bits of delay — about 13
// virtual days. Networks wider than 1<<fanSeqBits processes, or a delay draw
// beyond the bound, fall back to one message event per arrival (correct,
// just not batched).
const (
	fanSeqBits  = 13
	maxPackFan  = 1 << fanSeqBits
	maxPackWait = vclock.Time(1) << (63 - fanSeqBits)
)

// fanHeadShift sets the head of a sharded broadcast under the uniform band:
// the arrivals in the first 1/2^fanHeadShift of the band, which are all its
// fanout stores at expansion (options.headCut). Under the one-for-all rule
// few fanouts ever get past it: at n = 1024 under hybrid-dense's 50 µs–2 ms
// band (a head of 50–294 µs), 1,782 of a pass's 130,289 fanouts (seed 1)
// drain their head and load a tail, and a pass stores 1.84 M entries where
// loading every arrival stored 14.6 M.
//
// noCut is the head cut of a fanout that stores every arrival at load.
const (
	fanHeadShift = 3
	noCut        = ^uint64(0)
)

// headCut returns the delay from which a sharded broadcast's arrivals are
// left to its fanout's tail: past the first 1/2^fanHeadShift of the uniform
// band, or noCut — every arrival stored at load — under a timed policy, or a
// band whose maximum the packed word cannot hold (whose draws may ride their
// own message events, which only the expansion may insert).
func (o *options) headCut() uint64 {
	if !o.uniform || vclock.Time(o.uniMin+o.uniSpan) >= maxPackWait {
		return noCut
	}
	return uint64(o.uniMin+o.uniSpan>>fanHeadShift) + 1
}

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
// known: a fanout whose tail arrivals outlive the run returns to its pool
// only when the network is recycled, so an append-doubling growth chain
// would be paid — allocation, copy, and write barrier — once per fanout the
// run makes, not amortized across reuses.
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

// loadTail replaces the drained head of f with its tail: it redraws the
// stripe's delays from the saved stream state and stores the arrivals at or
// past the head cut to recipients open at the send — exactly the entries a
// full load would have left after the head. It returns the first tail
// arrival instant.
func (f *fanout) loadTail() vclock.Time {
	nw := f.nw
	var rng *rand.Rand
	if bits.UintSize == 32 {
		rng = rand.New(&f.src) // the band's draw calls the library there
	}
	keys, minDelay, maxDelay, _ := nw.packFan(nw.packKeys[:0], &f.src, rng, f.at, f.from, f.payload, f.to, f.epoch, nw.opts.headCut(), noCut, nil)
	nw.packKeys = keys[:0]
	f.tail = false
	f.keys, f.wide = f.keys[:0], f.wide[:0]
	return f.load(keys, f.to, f.at, minDelay, maxDelay)
}

// Fire delivers every arrival due at the current instant, then reschedules
// for the next instant — loading the tail first when the head has drained
// — or returns to the pool.
func (f *fanout) Fire() {
	var next vclock.Time
	if len(f.wide) != 0 {
		next = deliverDue(f, f.wide)
	} else {
		next = deliverDue(f, f.keys)
	}
	switch {
	case next >= 0:
		f.nw.opts.sched.AtEvent(f.base+next, f)
	case f.tail:
		f.nw.opts.sched.AtEvent(f.loadTail(), f)
	default:
		f.release()
	}
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
		if !nw.boxClosed(to) { // closed after send: drop it
			nw.put(to, int32(f.from), f.payload)
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

// release returns the exhausted fanout to the network's pool.
func (f *fanout) release() {
	f.payload = nil
	f.to = nil
	f.tail = false
	f.keys = f.keys[:0]
	f.wide = f.wide[:0]
	f.nw.freeFanouts = append(f.nw.freeFanouts, f)
}

// getFanout pops a pooled fanout event or makes one, recorded so that
// recycle finds it however the run ends; load sizes its entries.
func (nw *Network) getFanout() *fanout {
	if k := len(nw.freeFanouts); k > 0 {
		f := nw.freeFanouts[k-1]
		nw.freeFanouts = nw.freeFanouts[:k-1]
		return f
	}
	f := &fanout{nw: nw}
	nw.fanouts = append(nw.fanouts, f)
	return f
}

// keptFanouts bounds the fanout pool of a network engaged for an unsharded
// run of n processes. Such a run keeps few broadcasts in flight at once —
// E1–E9's n ≤ 9 runs never made more than 47 fanouts on one network — while
// a dense n = 1024 run leaves about 17,000.
func keptFanouts(n int) int { return 16*n + 64 }

// trimFanouts bounds what a recycled network that a larger run grew carries
// into an unsharded run of n processes: at most keptFanouts(n) fanouts, every
// one of them free, and no entry storage wider than n. It runs right after
// recycle, when every fanout is on the freelist; a run that needs more
// fanouts makes them, as a new network would.
func (nw *Network) trimFanouts(n int) {
	if k := keptFanouts(n); len(nw.fanouts) > k {
		nw.fanouts = append(make([]*fanout, 0, k), nw.fanouts[:k]...)
		nw.freeFanouts = append(make([]*fanout, 0, k), nw.fanouts...)
	}
	for _, f := range nw.fanouts {
		if cap(f.keys) > n {
			f.keys = nil
		}
		if cap(f.wide) > n {
			f.wide = nil
		}
	}
}

// New returns a network connecting processes 0 … n-1 on the scheduler
// given by WithScheduler, which must carry no other network. On a scheduler
// an earlier run handed back with vclock.Scheduler.Recycle it reuses that
// run's network, as recycle leaves it, with the storage the run grew.
func New(n int, opts ...Option) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("netsim: need at least one process, got %d", n)
	}
	var o options
	for _, opt := range opts {
		o.apply(opt)
	}
	if o.sched == nil {
		return nil, fmt.Errorf("netsim: no scheduler (WithScheduler is required)")
	}
	o.resolvePolicy()
	nw, _ := o.sched.Kept(vclock.KeepNetwork).(*Network)
	kept := nw != nil
	if !kept {
		nw = new(Network)
		nw.rng = rand.New(&nw.src)
	}
	if err := o.sched.SetNetwork((*deliverer)(nw)); err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	if kept {
		nw.recycle()
		if o.sched.ShardCount() == 0 && n < nw.n {
			nw.trimFanouts(n)
		}
	}
	nw.n, nw.opts = n, o
	nw.src.Seed(o.seed, o.seed^0xda3e39cb94b95bdb)
	nw.everyone = slices.Grow(nw.everyone[:0], n)[:n]
	for i := range nw.everyone {
		nw.everyone[i] = model.ProcID(i)
	}
	nw.openAll()
	nw.boxes = slices.Grow(nw.boxes[:0], n)[:n]
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

// Bind attaches the process that consumes p's inbox, an inbox the network
// keeps itself: for callers that drive a network without a record per
// process of their own.
func (nw *Network) Bind(p model.ProcID, proc *vclock.Proc) {
	if len(nw.own) != nw.n {
		nw.own = slices.Grow(nw.own[:0], nw.n)[:nw.n]
	}
	nw.boxes[p] = binding{box: &nw.own[p], proc: proc}
}

// BindInbox attaches proc as the consumer of p's inbox, which is box: the
// caller's storage, zero or Reset, which must stay in place for the run.
func (nw *Network) BindInbox(p model.ProcID, proc *vclock.Proc, box *Inbox) {
	nw.boxes[p] = binding{box: box, proc: proc}
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
	return nw.opts.draw(&nw.src, nw.rng, time.Duration(nw.opts.sched.Now()), m)
}

// post schedules m's message event at virtual instant at. Zero-delay
// messages still travel through the event queue, so delivery order is the
// deterministic (time, seq) order and every receive is a scheduling point.
func (nw *Network) post(at vclock.Time, m Message) {
	nw.opts.sched.AtMessage(at, int(m.From), int(m.To), m.Payload)
}

// deliver transports one message (already counted) with transit delay d: a
// message event d nanoseconds of virtual time from now.
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
// src, which rng wraps (sent at instant at), skips those closed at closure
// epoch epoch and those whose delay lies outside [lo, hi), and appends the
// packed (delay<<fanSeqBits)|position-in-to word to keys. An arrival the
// word cannot hold — a ≥13-virtual-day draw, or any at all once recipient
// ids or list positions outgrow fanSeqBits — is handed to lone with its
// arrival instant, to ride a message event of its own. Returns the words, in
// list order, the least and largest packed delay, and whether an arrival to
// a recipient open at epoch lay at or past hi.
func (nw *Network) packFan(keys []uint64, src *rand.PCG, rng *rand.Rand, at vclock.Time, from model.ProcID, payload any,
	to []model.ProcID, epoch uint32, lo, hi uint64, lone func(vclock.Time, Message)) (_ []uint64, minDelay, maxDelay uint64, past bool) {
	limit := maxPackWait
	if nw.n > maxPackFan || len(to) > maxPackFan {
		limit = 0
	}
	minDelay = ^uint64(0)
	// Under the uniform band with a span+1 that is not a power of two, the
	// draw's multiply-and-reject is written out here (on 64-bit platforms):
	// this loop draws every delay of a dense run, and the two calls of draw
	// and uint64n cost more than the draw.
	bandMin, bandN := nw.opts.uniMin, uint64(nw.opts.uniSpan)+1
	lemire := nw.opts.timedFn == nil && nw.opts.uniform && bits.UintSize == 64 && nw.opts.uniSpan > 0 && bandN&(bandN-1) != 0
	for i, p := range to {
		if int(p) < 0 || int(p) >= nw.n {
			continue
		}
		// The delay is drawn even for recipients that can no longer
		// receive, so the RNG stream — and with it every later draw of
		// the run — is independent of who has terminated.
		var d time.Duration
		if lemire {
			q, r := bits.Mul64(src.Uint64(), bandN)
			if r < bandN {
				q = lemireRetry(src, bandN, q, r)
			}
			d = max(bandMin+time.Duration(q), 0)
		} else {
			d = nw.opts.draw(src, rng, time.Duration(at), Message{From: from, To: p, Payload: payload})
		}
		if nw.closedAt[p] <= epoch {
			// The box would drop the message at arrival anyway (Put on a
			// closed inbox is a no-op); skipping the event here spares
			// the scheduler the decision-storm tail, where every process
			// rebroadcasts DECIDE to mostly-terminated peers.
			continue
		}
		w := uint64(d)
		if w >= hi {
			past = true
			continue
		}
		if w < lo {
			continue
		}
		if vclock.Time(d) >= limit {
			lone(at+vclock.Time(d), Message{From: from, To: p, Payload: payload})
			continue
		}
		minDelay = min(minDelay, w)
		maxDelay = max(maxDelay, w)
		keys = append(keys, w<<fanSeqBits|uint64(i))
	}
	return keys, minDelay, maxDelay, past
}

// fanStripe draws the delays of broadcast e to the list to from src, which
// rng wraps, packing through scratch, and loads its arrivals to recipients
// open at the send into a pooled fanout: all of them, or under a head cut
// (options.headCut; noCut for none) the head, with what the tail needs to
// be redrawn — or the tail at once when the head is empty. It returns the
// fanout and its first arrival instant, or nil when nothing is to arrive.
func (nw *Network) fanStripe(scratch *[]uint64, src *rand.PCG, rng *rand.Rand, e *fanEntry, to []model.ProcID, cut uint64,
	lone func(vclock.Time, Message)) (*fanout, vclock.Time) {
	state := *src
	keys, minDelay, maxDelay, tail := nw.packFan((*scratch)[:0], src, rng, e.at, e.from, e.payload, to, e.epoch, 0, cut, lone)
	*scratch = keys[:0]
	if len(keys) == 0 && !tail {
		return nil, 0
	}
	f := nw.getFanout()
	f.from, f.payload, f.to = e.from, e.payload, to
	if tail {
		f.tail, f.epoch, f.at, f.src = true, e.epoch, e.at, state
		if len(keys) == 0 {
			return f, f.loadTail()
		}
	}
	return f, f.load(keys, to, e.at, minDelay, maxDelay)
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
	e := fanEntry{from: from, payload: payload, at: nw.opts.sched.Now(), epoch: nw.closures}
	if f, first := nw.fanStripe(&nw.packKeys, &nw.src, nw.rng, &e, recipients, noCut, nw.post); f != nil {
		nw.opts.sched.AtEvent(first, f)
	}
}

// SendAll transmits payload from one process to every process (including
// the sender) — the batched all-to-all delivery path. It is semantically a
// Send per destination, but it schedules one fanout event
// per distinct arrival instant instead of one event per message, and
// reuses pooled fanouts: the Θ(n²) exchange pattern stops costing Θ(n²)
// scheduler allocations (DESIGN.md §4). Unlike Broadcast it does not
// count a broadcast macro-operation.
func (nw *Network) SendAll(from model.ProcID, payload any) {
	if nw.opts.counters != nil {
		nw.opts.counters.AddMsgsSent(int64(nw.n))
	}
	if len(nw.shards) > 0 && nw.fanOK && !nw.closed {
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

// ReceiveNow is the network's one receive: it returns the next queued
// message for p without waiting. ok = false means the inbox is currently
// empty; closed additionally reports that no further message can ever
// arrive (the inbox was closed and has drained). A handler invocation calls
// ReceiveNow until ok is false, draining the whole ring inbox under a single
// execution-token hold: one handler invocation per distinct arrival
// instant. Deliveries are counted at consumption (MsgsDelivered).
func (nw *Network) ReceiveNow(p model.ProcID) (m Message, ok, closed bool) {
	b := nw.boxes[p].box
	if b.n == 0 {
		return Message{}, false, nw.boxClosed(p)
	}
	from, payload := b.get()
	if nw.opts.counters != nil {
		nw.opts.counters.AddMsgsDelivered(1)
	}
	return Message{From: model.ProcID(from), To: p, Payload: payload}, true, false
}

// CloseInbox marks process p as terminated: its queued messages remain
// drainable but new messages to it are dropped. Its consumer is woken so it
// can observe the close. CloseInbox is idempotent.
func (nw *Network) CloseInbox(p model.ProcID) {
	if nw.boxClosed(p) {
		return
	}
	nw.closures++
	nw.closedAt[p] = nw.closures
	if proc := nw.boxes[p].proc; proc != nil {
		proc.Wake()
	}
}

// epochOpen is the closure epoch of an open inbox: past every send's.
const epochOpen = ^uint32(0)

// boxClosed reports whether p's inbox is closed.
func (nw *Network) boxClosed(to model.ProcID) bool {
	return nw.closedAt[to] != epochOpen
}

// openAll opens every inbox of the network's n and resets the closure count.
func (nw *Network) openAll() {
	nw.closedAt = slices.Grow(nw.closedAt[:0], nw.n)[:nw.n]
	for i := range nw.closedAt {
		nw.closedAt[i] = epochOpen
	}
	nw.closures = 0
}

// Shutdown closes every inbox and hands the network to its scheduler's keep
// slot, for New to reuse once the scheduler is recycled. The network must not
// be used after Shutdown.
func (nw *Network) Shutdown() {
	nw.closed = true
	for i := range nw.boxes {
		nw.CloseInbox(model.ProcID(i))
	}
	nw.opts.sched.Keep(vclock.KeepNetwork, nw)
}

// recycle readies a network whose run is over — it was shut down and its
// scheduler recycled, so none of its events is pending anywhere, and no
// message either, since each rode its own event — for New: every fanout it
// made goes back on its freelist, cleared, the ones still in flight when the
// run ended too, with their entry storage; its own inboxes are emptied, and
// the bindings are dropped: bound storage is its owner's to clear
// (driver.RunHandlers clears its records). The payload pool is dropped: its
// objects belong to the run's protocol. A sharded network's window and
// shard buffers are emptied, the entries a flush never expanded too, and
// its shards are detached; New engages them again (initShards) when the
// next run is sharded, on the same storage. Nothing of the finished run
// stays reachable from the network.
func (nw *Network) recycle() {
	// A fanout off its freelist is one still in flight: it has its
	// recipient list. The freelist takes them all back, grown at once to
	// every fanout the network made: a sharded run can end with thousands
	// in flight, and appending them one by one would pay a doubling chain.
	nw.freeFanouts = slices.Grow(nw.freeFanouts, len(nw.fanouts)-len(nw.freeFanouts))
	for _, f := range nw.fanouts {
		if f.to != nil {
			f.release()
		}
	}
	for i := range nw.own {
		nw.own[i].Reset()
	}
	clear(nw.boxes)
	clear(nw.freePayloads)
	nw.freePayloads = nw.freePayloads[:0]
	for s := range nw.shards {
		sh := &nw.shards[s]
		clear(sh.burst)
		sh.burst = sh.burst[:0]
	}
	clear(nw.win.fans)
	nw.win.fans, nw.win.live = nw.win.fans[:0], false
	nw.shards, nw.fanOK = nw.shards[:0], false
	nw.closed = false
}
