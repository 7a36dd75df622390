// Window expansion — the send path of large topologies (DESIGN.md §12). On a
// sharded scheduler the network registers ONE expansion job per flush window
// (vclock.SubmitSealed) and every send of the window — from any process
// invoked in it — only appends intent to that job: a SendAll appends one
// broadcast entry, a BurstSend/BurstSendVia one per-recipient entry on the
// recipient's shard. At the flush point the job seals and each shard — a
// contiguous recipient stripe with its own PCG stream derived from the run
// seed — draws its delays, builds deferred payloads, and inserts its events
// into the scheduler's one wheel: one lazily ordered fanout per broadcast,
// from the network's pool, and one message event per per-recipient entry. A
// fanout re-arms for its next arrival instant with a plain AtEvent. Work is
// partitioned by shard — a pure function of the topology — and the sequence
// block is reserved at the flush point, so the schedule does not depend on
// the order in which the shards are expanded.
package netsim

import (
	"math/rand/v2"
	"time"

	"allforone/internal/model"
	"allforone/internal/vclock"
)

// sendShard is one shard's expansion state. The shard's expansion, inside a
// flush, draws from src, packs into keys and consumes the burst entries;
// between flushes, sends append burst entries. Every shard's expansion runs
// on the execution token, so all of them share the network's fanout and
// payload pools.
type sendShard struct {
	src    rand.PCG   // per-shard delay stream, derived from the run seed
	rng    *rand.Rand // over src, for a timed delay policy
	lo, hi int        // recipient stripe [lo, hi)
	keys   []uint64   // packed-word scratch, hot across windows
	burst  []burstEntry
}

// BurstBuilder constructs one burst entry's payload inside the expansion
// job, when the flush expands the recipient's shard — or at send time, when
// the send takes the unsharded fallback path. ctx is the shared context the
// sender captured at BurstSendVia (e.g. one boxed item batch shared by d
// per-successor entries) and arg the per-entry argument (e.g. that link's
// sequence number). The builder may draw pooled objects via
// Network.GrabPayload; bytes reports the payload bytes built at a flush (the
// PooledPayloadBytes stat).
type BurstBuilder interface {
	BuildPayload(nw *Network, ctx any, arg uint64) (payload any, bytes int)
}

// fanEntry is one queued SendAll: what the flush needs to expand any shard's
// stripe of it, captured at send time — including the send instant, since
// the clock may have advanced by the flush. Its closed-inbox snapshot is the
// entry's run of window.snaps.
type fanEntry struct {
	from    model.ProcID
	payload any
	at      vclock.Time
}

// burstEntry is one queued per-recipient send, appended between flushes and
// consumed by the flush that expands its recipient's shard.
type burstEntry struct {
	payload any          // the payload itself, or the builder's shared ctx
	builder BurstBuilder // nil: payload above is sent as-is
	at      vclock.Time  // send instant (the clock may advance mid-window)
	arg     uint64       // per-entry builder argument
	from    model.ProcID
	to      model.ProcID
	skip    bool // inbox closed at send time: draw the delay, insert nothing
}

// window is the one expansion job of the current flush window (vclock.Job).
// It is a singleton per network: windows never overlap — the flush that
// seals it also expands it — so the same object re-registers for the next
// window.
//
// Its sequence block is laid out submission-major: the broadcast entries in
// append order, each taking one seqPerShard-wide run per shard, then the
// per-recipient block with one burstPer-wide run per shard.
type window struct {
	nw   *Network
	live bool // registered with the scheduler for the current window

	// fans are the window's broadcasts; snaps holds one closed-inbox bitmap
	// snapshot per entry, back to back. The live bitmap may change between
	// a send and the flush; the snapshot pins the skip decisions to the send
	// instant, as an unsharded send would make them. The expansion only
	// reads both.
	fans  []fanEntry
	snaps []uint64

	burstBase uint64 // offset of the per-recipient block, fixed by Seal
	burstPer  uint64 // its per-shard stride, fixed by Seal
}

// Seal freezes the window: no further entry will be appended (the token is
// inside flush), the per-recipient stride is the deepest shard's entry
// count, and the network is re-armed so the next send opens a new window.
func (w *window) Seal() (seqs uint64, broadcasts int64) {
	nw := w.nw
	per := 0
	for s := range nw.shards {
		per = max(per, len(nw.shards[s].burst))
	}
	shards := uint64(len(nw.shards))
	w.burstBase = uint64(len(w.fans)) * shards * nw.seqPerShard
	w.burstPer = uint64(per)
	w.live = false
	return w.burstBase + shards*w.burstPer, int64(len(w.fans))
}

// ExpandShard inserts shard's share of the window. It touches only the
// window (read-only), the shard's own state (sendShard), and the inserter.
// Delays are drawn from the shard's own stream in entry order — the
// broadcasts' stripes first, then the per-recipient entries — and for
// recipients that can no longer receive too (packFan's stream-stability
// rule).
func (w *window) ExpandShard(shard int, seqBase uint64, ins *vclock.ShardInserter) {
	nw := w.nw
	sh := &nw.shards[shard]

	// Broadcasts: one fanout per entry at the head of the entry's run, its
	// stripe of arrivals bucketed, not sorted (see fanout); a draw too long
	// for the packed word rides its own message event on the run's following
	// sequence numbers.
	stripe := nw.everyone[sh.lo:sh.hi]
	words := len(nw.closedBox)
	var seq uint64
	lone := func(at vclock.Time, m Message) {
		seq++
		ins.AtMessage(at, seq, int(m.From), int(m.To), m.Payload)
	}
	for i := range w.fans {
		e := &w.fans[i]
		seq = seqBase + (uint64(i)*uint64(len(nw.shards))+uint64(shard))*nw.seqPerShard
		first := seq
		keys, minDelay, maxDelay := nw.packFan(sh.keys[:0], &sh.src, sh.rng, e.at, e.from, e.payload, stripe, w.snaps[i*words:(i+1)*words], lone)
		sh.keys = keys[:0]
		if len(keys) == 0 {
			continue
		}
		f := nw.getFanout()
		f.from = e.from
		f.payload = e.payload
		ins.At(f.load(keys, stripe, e.at, minDelay, maxDelay), first, f)
	}

	// Per-recipient entries: one message event each, at (send instant +
	// delay), on consecutive sequence numbers of the shard's run.
	entries := sh.burst
	if len(entries) == 0 {
		return
	}
	seq = seqBase + w.burstBase + uint64(shard)*w.burstPer
	payloadBytes := 0
	for i := range entries {
		e := &entries[i]
		payload := e.payload
		if e.builder != nil && !e.skip {
			var nb int
			payload, nb = e.builder.BuildPayload(nw, e.payload, e.arg)
			payloadBytes += nb
		}
		m := Message{From: e.from, To: e.to, Payload: payload}
		d := nw.opts.draw(&sh.src, sh.rng, time.Duration(e.at), m)
		if e.skip {
			continue
		}
		ins.AtMessage(e.at+vclock.Time(d), seq, int(e.from), int(e.to), payload)
		seq++
	}
	if payloadBytes > 0 {
		ins.NotePayloadBytes(int64(payloadBytes))
	}
	// The entries are consumed; clearing drops their payload references.
	clear(entries)
	sh.burst = entries[:0]
}

// openWindow registers the window's job with the scheduler on the first
// sharded send after a flush. The earliest-instant hint is the submit
// instant plus the profile-wide minimum delay — the uniform band's, when the
// band is what draws: the clock never rewinds and delays are non-negative,
// so it lower-bounds every entry of the window, including ones appended
// later — and under a zero-minimum profile the lookahead rule still lets the
// current instant's whole cohort pop before the window closes.
func (nw *Network) openWindow() {
	w := &nw.win
	if w.live {
		return
	}
	// The previous window's flush is over: drop its broadcast entries (and
	// their payload references), which the expansion only read.
	clear(w.fans)
	w.fans = w.fans[:0]
	w.snaps = w.snaps[:0]
	sched := nw.opts.sched
	earliest := vclock.Time(sched.Now())
	if nw.opts.uniform {
		earliest += vclock.Time(nw.opts.uniMin)
	}
	w.live = true
	sched.SubmitSealed(w, earliest)
}

// appendFan is SendAll's sharded form: queue the broadcast, with the
// closed-inbox bitmap as of now, on the window's job.
func (nw *Network) appendFan(from model.ProcID, payload any) {
	nw.openWindow()
	w := &nw.win
	w.fans = append(w.fans, fanEntry{from: from, payload: payload, at: vclock.Time(nw.opts.sched.Now())})
	w.snaps = append(w.snaps, nw.closedBox...)
}

// appendBurst queues one per-recipient entry on the recipient's shard.
func (nw *Network) appendBurst(e burstEntry) {
	nw.openWindow()
	e.at = vclock.Time(nw.opts.sched.Now())
	e.skip = nw.boxClosed(e.to)
	sh := &nw.shards[nw.shardOf[e.to]]
	sh.burst = append(sh.burst, e)
}

// BurstSend transmits payload from one process to another through the
// sharded expansion path: semantically identical to Send — counted the
// same, delivered at send instant + one policy delay draw — but the delay
// draw, delivery-event construction, and wheel insertion happen inside the
// current window's expansion job, on the shard that owns the recipient. On
// an unsharded network (small topology, no delay policy) or after Shutdown
// it falls back to plain Send behavior. Like every network call it must run
// under the scheduler's execution token.
func (nw *Network) BurstSend(from, to model.ProcID, payload any) {
	if int(to) < 0 || int(to) >= nw.n {
		return
	}
	if nw.opts.counters != nil {
		nw.opts.counters.AddMsgsSent(1)
	}
	if nw.shards == nil || nw.closed {
		m := Message{From: from, To: to, Payload: payload}
		nw.deliver(m, nw.delayFor(m))
		return
	}
	nw.appendBurst(burstEntry{payload: payload, from: from, to: to})
}

// BurstSendVia is BurstSend with deferred payload construction: instead of
// a ready payload the sender hands a builder, a context shared across the
// entries of one logical flush (boxed once), and a per-entry argument. The
// payload is built inside the expansion job, so the sending handler only
// enqueues intent. On the fallback paths the payload is built at send time.
func (nw *Network) BurstSendVia(from, to model.ProcID, b BurstBuilder, ctx any, arg uint64) {
	if int(to) < 0 || int(to) >= nw.n {
		return
	}
	if nw.opts.counters != nil {
		nw.opts.counters.AddMsgsSent(1)
	}
	if nw.shards == nil || nw.closed {
		payload, _ := b.BuildPayload(nw, ctx, arg)
		m := Message{From: from, To: to, Payload: payload}
		nw.deliver(m, nw.delayFor(m))
		return
	}
	nw.appendBurst(burstEntry{payload: ctx, builder: b, arg: arg, from: from, to: to})
}

// GrabPayload pops a pooled payload object from the network's payload pool,
// or returns nil when the pool is empty (the caller allocates).
func (nw *Network) GrabPayload() any {
	k := len(nw.freePayloads)
	if k == 0 {
		return nil
	}
	p := nw.freePayloads[k-1]
	nw.freePayloads[k-1] = nil
	nw.freePayloads = nw.freePayloads[:k-1]
	return p
}

// RecyclePayload returns a consumed payload object to the network's payload
// pool, for a later GrabPayload.
func (nw *Network) RecyclePayload(p any) {
	nw.freePayloads = append(nw.freePayloads, p)
}

// mix64 is the SplitMix64 finalizer, used to derive independent per-shard
// PCG seeds from the run seed.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// initShards builds the per-shard expansion state: contiguous recipient
// stripes and per-shard RNG streams, derived from the run seed and the shard
// index alone.
func (nw *Network) initShards(count int) {
	nw.shards = make([]sendShard, count)
	nw.shardOf = make([]uint8, nw.n)
	nw.seqPerShard = uint64((nw.n+count-1)/count) + 1
	nw.win.nw = nw
	for s := range nw.shards {
		sh := &nw.shards[s]
		sh.lo = s * nw.n / count
		sh.hi = (s + 1) * nw.n / count
		for i := sh.lo; i < sh.hi; i++ {
			nw.shardOf[i] = uint8(s)
		}
		st := nw.opts.seed + uint64(s+1)*0x9E3779B97F4A7C15
		sh.src.Seed(mix64(st), mix64(st^0xda3e39cb94b95bdb))
		sh.rng = rand.New(&sh.src)
	}
}
