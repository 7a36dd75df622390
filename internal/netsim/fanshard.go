// Sharded fanout expansion — the virtual-mode broadcast path for large
// topologies (DESIGN.md §12). One SendAll submits one expansion job to the
// scheduler's worker pool instead of expanding inline under the execution
// token: each shard owns a contiguous recipient stripe and an independent
// RNG stream derived from the run seed, draws its stripe's delays, packs
// and sorts its arrival keys, and stages one compressed fanout event into
// its shard wheel. Because work is partitioned by shard — a pure function
// of the topology — and sequence numbers are reserved at submit time, the
// resulting schedule is bit-identical at every worker count.
package netsim

import (
	"math/rand/v2"
	"slices"
	"time"

	"allforone/internal/model"
	"allforone/internal/vclock"
)

// sendShard is one shard's expansion state. The rng/keys/free fields are
// owned by the worker that runs the shard's jobs (or by the token itself at
// Workers = 1); recycled is owned by the token (fanout release happens
// under it). The two sides only meet in recycleShardPools, which runs with
// no jobs outstanding — the workers idle — so no lock is ever needed.
type sendShard struct {
	rng      *rand.Rand // per-shard delay stream, derived from the run seed
	lo, hi   int        // recipient stripe [lo, hi)
	keys     []uint64   // packed-key scratch, hot across jobs
	free     []*fanout  // worker-side fanout freelist
	recycled []*fanout  // token-side: released fanouts awaiting merge

	// Per-recipient burst state (burst.go), same ownership split: burst
	// entries are appended by the token between flushes and consumed by
	// the owning worker during the flush join; freeDel/freePay are
	// worker-side pools, recDel/recPay the token-side recycle lists merged
	// back at pool-idle.
	burst   []burstEntry
	freeDel []*delivery
	recDel  []*delivery
	freePay []any
	recPay  []any
}

// getFanout pops a pooled fanout from the shard's freelist or makes one
// tagged with the shard id, so release routes it back here.
func (sh *sendShard) getFanout(nw *Network, shard, want int) *fanout {
	if k := len(sh.free); k > 0 {
		f := sh.free[k-1]
		sh.free = sh.free[:k-1]
		if cap(f.key32) < want {
			f.key32 = make([]uint32, 0, want)
		}
		return f
	}
	return &fanout{nw: nw, shard: int32(shard), key32: make([]uint32, 0, want)}
}

// getDelivery pops a pooled delivery from the shard's worker-side freelist
// or makes one tagged with the shard id, so Fire routes it back here.
func (sh *sendShard) getDelivery(nw *Network, shard int) *delivery {
	if k := len(sh.freeDel); k > 0 {
		d := sh.freeDel[k-1]
		sh.freeDel = sh.freeDel[:k-1]
		return d
	}
	return &delivery{nw: nw, shard: int32(shard)}
}

// fanJob is one SendAll's expansion job: everything a worker needs to
// expand any shard's stripe, captured under the token at submit time —
// including the send instant (workers must never read the live clock) and
// a snapshot of the closed-inbox bitmap (the live bitmap may change while
// workers run; the snapshot pins the same skip decisions the inline path
// would have made at send time, at every worker count).
type fanJob struct {
	nw      *Network
	from    model.ProcID
	payload any
	at      vclock.Time // submit instant: the sched.Now() of the SendAll
	dead    bool        // network was shut down at submit (delays collapse to 0)
	closed  []uint64    // closed-inbox bitmap snapshot at submit
}

// closedBit reports whether recipient to was closed at submit time.
func (j *fanJob) closedBit(to int) bool {
	return j.closed[to>>6]&(1<<(uint(to)&63)) != 0
}

// ExpandShard draws, packs, sorts, and stages shard's stripe of the
// broadcast. It is the vclock.ShardJob hook and runs off the execution
// token; it touches only the job (read-only), the shard's worker-owned
// state, and the staging inserter. The structure mirrors sendFan exactly —
// draw for every stripe recipient (closed or not, so the shard's RNG
// stream is independent of who has terminated), skip closed recipients,
// divert ≥maxPackWait draws to their own delivery events, delta-compress
// the rest into one fanout.
func (j *fanJob) ExpandShard(shard int, seqBase uint64, ins *vclock.ShardInserter) {
	nw := j.nw
	sh := &nw.shards[shard]
	seqBase += uint64(shard) * nw.seqPerShard
	keys := sh.keys[:0]
	maxDelay := uint64(0)
	switch {
	case j.dead:
		// The network was shut down at submit: delayFor draws nothing and
		// returns 0 for every recipient, and so does the shard path.
		for to := sh.lo; to < sh.hi; to++ {
			if !j.closedBit(to) {
				keys = append(keys, uint64(to))
			}
		}
	case nw.opts.uniform && vclock.Time(nw.opts.uniMin+nw.opts.uniSpan) < maxPackWait:
		// Uniform fast path: the inlined WithUniformDelay draw, on the
		// shard's stream.
		min, span := nw.opts.uniMin, int64(nw.opts.uniSpan)
		for to := sh.lo; to < sh.hi; to++ {
			d := min
			if span > 0 {
				d += time.Duration(sh.rng.Int64N(span + 1))
			}
			if d < 0 {
				d = 0
			}
			if j.closedBit(to) {
				continue
			}
			w := uint64(d)
			if w > maxDelay {
				maxDelay = w
			}
			keys = append(keys, w<<fanSeqBits|uint64(to))
		}
	default:
		overflows := uint64(0)
		for to := sh.lo; to < sh.hi; to++ {
			m := Message{From: j.from, To: model.ProcID(to), Payload: j.payload}
			var d time.Duration
			if nw.opts.timedFn != nil {
				d = nw.opts.timedFn(time.Duration(j.at), sh.rng, m)
			} else {
				d = nw.opts.delayFn(sh.rng, m)
			}
			if d < 0 {
				d = 0
			}
			if j.closedBit(to) {
				continue
			}
			if vclock.Time(d) >= maxPackWait {
				// A ≥13-virtual-day draw overflows the packed key: this one
				// arrival rides its own delivery event, with the next unused
				// seq of the shard's block. Allocated fresh — the global
				// delivery pool is token-owned, off limits here; Fire returns
				// it there safely (Fire runs under the token).
				overflows++
				ins.At(j.at+vclock.Time(d), seqBase+overflows,
					&delivery{nw: nw, box: nw.vboxes[to], msg: m, shard: -1})
				continue
			}
			w := uint64(d)
			if w > maxDelay {
				maxDelay = w
			}
			keys = append(keys, w<<fanSeqBits|uint64(to))
		}
	}
	if len(keys) == 0 {
		sh.keys = keys
		return
	}
	// Sorting the full packed words orders by (delay, recipient); the
	// stripe was scanned in ascending recipient order, so ties resolve
	// exactly like the serial path's stable sort (sortFanKeys) of SendAll.
	slices.Sort(keys)
	f := sh.getFanout(nw, shard, len(keys))
	f.from = j.from
	f.payload = j.payload
	first := f.load(keys, j.at)
	sh.keys = keys[:0]
	ins.At(first, seqBase, f)
}

// submitFanAll is SendAll's sharded form: capture the job under the token,
// reserve its sequence block, and hand it to the expansion pool. The
// earliest-instant hint is what lets the scheduler keep popping events
// while the workers expand: under a uniform profile no staged arrival can
// precede now + uniMin.
func (nw *Network) submitFanAll(from model.ProcID, payload any) {
	sched := nw.opts.sched
	if sched.JobsOutstanding() == 0 {
		nw.recycleShardPools()
	}
	var j *fanJob
	if k := len(nw.freeJobs); k > 0 {
		j = nw.freeJobs[k-1]
		nw.freeJobs = nw.freeJobs[:k-1]
	} else {
		j = &fanJob{nw: nw}
	}
	j.from, j.payload = from, payload
	j.at = vclock.Time(sched.Now())
	j.dead = nw.closed.Load()
	j.closed = append(j.closed[:0], nw.closedBox...)
	earliest := j.at
	if !j.dead && nw.opts.uniform && nw.opts.uniMin > 0 {
		earliest += vclock.Time(nw.opts.uniMin)
	}
	sched.SubmitJob(j, earliest, nw.seqPerShard)
	nw.liveJobs = append(nw.liveJobs, j)
}

// recycleShardPools runs under the token with no expansion job outstanding
// — the workers idle — so the token may briefly touch the worker-owned
// freelists: merge each shard's released fanouts back, and recycle
// finished jobs (their bitmap snapshot buffers with them).
func (nw *Network) recycleShardPools() {
	for i := range nw.shards {
		sh := &nw.shards[i]
		if len(sh.recycled) > 0 {
			sh.free = append(sh.free, sh.recycled...)
			clear(sh.recycled)
			sh.recycled = sh.recycled[:0]
		}
		if len(sh.recDel) > 0 {
			sh.freeDel = append(sh.freeDel, sh.recDel...)
			clear(sh.recDel)
			sh.recDel = sh.recDel[:0]
		}
		if len(sh.recPay) > 0 {
			sh.freePay = append(sh.freePay, sh.recPay...)
			clear(sh.recPay)
			sh.recPay = sh.recPay[:0]
		}
	}
	for _, j := range nw.liveJobs {
		j.payload = nil
		nw.freeJobs = append(nw.freeJobs, j)
	}
	clear(nw.liveJobs)
	nw.liveJobs = nw.liveJobs[:0]
}

// mix64 is the SplitMix64 finalizer, used to derive independent per-shard
// PCG seeds from the run seed.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// initShards builds the per-shard expansion state: contiguous recipient
// stripes and per-shard RNG streams. The derivation depends only on the
// run seed and the shard index — never on the worker count — which is half
// of the parallelism-independence argument (the other half is the
// scheduler's submit-time sequence reservation).
func (nw *Network) initShards(count int) {
	nw.shards = make([]sendShard, count)
	nw.shardOf = make([]uint8, nw.n)
	nw.seqPerShard = uint64((nw.n+count-1)/count) + 1
	nw.burstJob.nw = nw
	for s := range nw.shards {
		sh := &nw.shards[s]
		sh.lo = s * nw.n / count
		sh.hi = (s + 1) * nw.n / count
		for i := sh.lo; i < sh.hi; i++ {
			nw.shardOf[i] = uint8(s)
		}
		st := nw.opts.seed + uint64(s+1)*0x9E3779B97F4A7C15
		sh.rng = rand.New(rand.NewPCG(mix64(st), mix64(st^0xda3e39cb94b95bdb)))
	}
}
