// Package allconcur implements leaderless atomic broadcast over a sparse
// overlay digraph, after AllConcur (Poke, Hoefler, Glass 2017): every
// process floods its proposal over a d-regular digraph G, tracks which
// proposals can still be in flight, and decides — without any leader or
// coordinator — once its delivered set is provably complete. The overlay's
// vertex connectivity is the fault budget: up to κ(G)−1 crashes leave the
// live subgraph strongly connected and every survivor terminates.
//
// # Dissemination and early termination
//
// A run is one single round of atomic broadcast. Each process R-broadcasts
// its value by flooding: on the FIRST receipt of origin q's value it
// forwards the value to its d overlay successors (later duplicate copies
// are dropped). Crash-free, every process therefore receives all n values
// within diam(G) hops and decides immediately — the "early termination"
// half of AllConcur: no failure-detector timeout is ever waited out.
//
// With crashes the protocol must decide when to stop waiting for a missing
// origin q. A crashing process emits a tombstone marker on each outgoing
// link (the simulation's deterministic stand-in for AllConcur's
// heartbeat-based failure detector, which provides the same guarantee: a
// successor s of a crashed f eventually learns of the crash AFTER the
// f→s channel has been drained). A successor s processing f's marker
// emits a FAIL(f,s) notification, flooded like a value. FAIL(f,s) at p
// certifies: every message f ever put on the f→s channel was processed
// by s BEFORE s emitted the notification — so if origin q's value had
// been among them, it would have been forwarded ahead of FAIL(f,s) and p
// would already hold it (per-link FIFO plus in-order batch flushing keep
// that order on every forwarding path; see the envelope invariant below).
//
// Process p may therefore exclude a missing origin q once the suspect
// closure of q is fully resolved: starting from C = {q}, every f ∈ C must
// be known crashed, and each successor s ∈ Succ(f) must either have
// certified FAIL(f,s) or be known crashed itself (joining C — it may have
// received q's value and died before forwarding). If the closure runs
// into a live successor whose channel is not yet certified drained, q's
// value may still be in flight and p keeps waiting. When every origin is
// either delivered or excluded, p decides the value of the SMALLEST
// delivered origin id; the flooding argument makes the delivered sets of
// all deciding processes equal, so decisions agree.
//
// # Message format and the envelope invariant
//
// News items (value forwards and FAIL notifications) are not sent one
// message each: each process appends them — in processing order — to an
// outbox, and flushes the outbox as ONE envelope per successor (the
// slice is shared across the d sends; netsim payloads are never
// mutated). Flushes are atomic within a reactor invocation: either every
// successor receives the envelope or (when the process crashes with an
// unflushed outbox) none does, which the exclusion rule counts — soundly
// — as "never forwarded". Per-link sequence numbers restore FIFO under
// the network's random delays (a reorder buffer holds early envelopes),
// and a short flush delay batches the items of several deliveries into
// one envelope, keeping the envelope count near n·d per dissemination
// wave instead of one message per item copy.
//
// # The per-item path
//
// A run ingests Θ(n²·d) item copies — every value reaches every process
// once per predecessor — so a run costs what one dedupe verdict and one
// item copy cost. The delivered set of a process is an n-bit row of one
// run-wide bitmap (n²/8 bytes: 512 KB at n=2048, 32 MiB at n=16 384, where
// a bool per origin cost 256 MB) with a count for the crash-free fast path
// and a first-missing watermark from which the termination check visits
// the gaps in ascending order; AllConcur's own tracking is such a
// per-server message set, and early termination asks only "is q delivered"
// and "which origins are still missing". A news item is a 12-byte
// pointer-free record: a VAL item names its origin, and the receiver reads
// the value from the run's read-only proposal table when its decision
// candidate changes. The handle is faithful — a value string forwarded in
// the simulator was never copied, every copy aliased the proposer's bytes —
// and it spares the collector the outbox arrays, which hold no pointer.
//
// Like gossip, the implementation is an inline handler reactor
// (driver.RunHandlers) registered as "allconcur" with the overlay and
// sub-quadratic capability flags; timed crashes are honored by the
// protocol itself (the tombstone markers), not by the driver.
package allconcur

import (
	"errors"
	"fmt"
	"math/bits"
	"time"
	"unsafe"

	"allforone/internal/driver"
	"allforone/internal/failures"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/overlay"
	"allforone/internal/sim"
	"allforone/internal/vclock"
)

// DefaultFlushDelay is the outbox batching window: news items arriving
// within it leave in one envelope. Half the typical profile delay band —
// small against dissemination latency, large enough to coalesce a
// delivery burst.
const DefaultFlushDelay = 100 * time.Microsecond

// Config describes one atomic-broadcast run.
type Config struct {
	// N is the number of processes (required, ≥ 2).
	N int
	// Proposals holds each process's value (required, length N); every
	// process that decides delivers the same complete set and decides the
	// value of the smallest delivered origin id.
	Proposals []string
	// Spec is the overlay digraph to flood over (required). Its vertex
	// connectivity is the fault budget: κ(G) ≥ f+1 keeps f crashes safe.
	Spec overlay.Spec
	// Seed makes all randomness reproducible.
	Seed int64
	// FlushDelay is the outbox batching window; 0 = DefaultFlushDelay.
	FlushDelay time.Duration
	// Crashes is the timed crash pattern, honored by the protocol itself:
	// a victim halts at its crash instant after emitting tombstone markers
	// (its unflushed outbox dies with it). Step-point plans are rejected.
	Crashes *failures.Schedule
	// MaxVirtualTime / MaxSteps are the usual driver bounds;
	// MaxSteps 0 derives the sparse default (sim.StepsLinear).
	MaxVirtualTime time.Duration
	MaxSteps       int64
	// MinDelay/MaxDelay bound uniform random message transit time.
	MinDelay, MaxDelay time.Duration
	// NetOptions appends extra network options (profile delay policies).
	NetOptions []netsim.Option
}

// ErrBadConfig reports an invalid configuration.
var ErrBadConfig = errors.New("allconcur: invalid configuration")

// ProcResult is one process's outcome.
type ProcResult struct {
	Status sim.Status
	// Decision is the decided value (StatusDecided only).
	Decision string
	// Delivered is the size of the delivered set when the execution ended
	// (diagnostic: how far dissemination got before a block or crash).
	Delivered int
}

// Result aggregates an atomic-broadcast run.
type Result struct {
	Procs            []ProcResult
	Metrics          metrics.Snapshot
	Elapsed          time.Duration
	VirtualTime      time.Duration
	Steps            int64
	Quiesced         bool
	DeadlineExceeded bool
	StepsExceeded    bool
	Sched            vclock.SchedulerStats
}

// itemKind tags one news item of an envelope.
type itemKind uint8

const (
	itemVal  itemKind = iota // a value forward: Origin proposed Value
	itemFail                 // a crash certificate: Detector drained Origin→Detector
)

// item is one unit of flooded news: 12 bytes and no pointer, so the
// collector neither scans nor clears the outbox arrays that carry the
// run's Θ(n²·d) item copies. A VAL item carries no value: its origin is a
// handle into the run's proposal table (reactor.proposals).
type item struct {
	Origin   uint32   // VAL: the proposer; FAIL: the crashed process
	Detector uint32   // FAIL only: the successor certifying the drain
	Kind     itemKind // itemVal or itemFail
}

// envelope is one flushed outbox: a per-link-sequenced batch of news
// items, its slice shared by the d per-successor sends (never mutated
// after flush). On the wire it travels as a pooled *envelope built inside
// the network's burst expansion job (envBuilder) — the recipient recycles
// the envelope after ingesting it, so steady-state flushes allocate
// nothing per successor.
type envelope struct {
	Seq   uint32
	Items []item
}

// envBuilder is the netsim.BurstBuilder of the flush path: it assembles
// one successor's envelope when the network's window expands the
// recipient's shard, from the shard's payload pool. ctx is the boxed
// shared item batch (boxed once per flush, not once per successor) and arg
// the link's sequence number.
type envBuilder struct{}

// envelopeBytes is what one pooled envelope contributes to the
// PooledPayloadBytes stat: the envelope header itself (the item slice is
// shared across the flush's d envelopes and counted by none of them).
const envelopeBytes = int(unsafe.Sizeof(envelope{}))

// BuildPayload implements netsim.BurstBuilder.
func (envBuilder) BuildPayload(nw *netsim.Network, shard int, ctx any, arg uint64) (any, int) {
	env, _ := nw.GrabPayload(shard).(*envelope)
	if env == nil {
		env = new(envelope)
	}
	env.Seq = uint32(arg)
	env.Items = ctx.([]item)
	return env, envelopeBytes
}

// marker is a crashing process's tombstone, sequenced like an envelope so
// the receiver processes it only after draining everything sent before it.
type marker struct {
	Seq uint32
}

// deliveredSet tracks one reactor's delivered origins as an n-bit row of
// the run-wide bitmap (Run carves the rows from one backing array): n²/8
// bytes in all — 32 MiB at n=16 384, where a per-origin bool slice cost
// 256 MB — and every one of the Θ(n²·d) dedupe verdicts of a run is a
// single word test.
type deliveredSet struct {
	bits  []uint64
	count int
	low   int // first-missing watermark: every word before bits[low] is full
}

// Count returns the number of ids in the set.
func (s *deliveredSet) Count() int { return s.count }

// Contains reports whether q is in the set.
func (s *deliveredSet) Contains(q uint32) bool { return s.bits[q>>6]&(1<<(q&63)) != 0 }

// Add inserts q; it reports whether q was absent.
func (s *deliveredSet) Add(q uint32) bool {
	if s.Contains(q) {
		return false
	}
	s.bits[q>>6] |= 1 << (q & 63)
	s.count++
	return true
}

// EachMissing calls fn for every id in [0, n) absent from the set, in
// ascending order, stopping at the first rejection; it reports whether fn
// accepted every gap. The set only grows, so the words found full at the
// front are skipped for good (the watermark) and a call costs what is
// still missing, not n.
func (s *deliveredSet) EachMissing(n uint32, fn func(uint32) bool) bool {
	for s.low < len(s.bits) && s.bits[s.low] == ^uint64(0) {
		s.low++
	}
	for w := s.low; w < len(s.bits); w++ {
		for gaps := ^s.bits[w]; gaps != 0; gaps &= gaps - 1 {
			q := uint32(w<<6 + bits.TrailingZeros64(gaps))
			if q >= n {
				return true // padding of the last word
			}
			if !fn(q) {
				return false
			}
		}
	}
	return true
}

// failCert is one crashed process's certificate set: bit k set means
// FAIL(f, Succ(f)[k]) is held. The entry's existence alone marks f known
// crashed. walk is the last closure walk (reactor.walk) that took f into
// its suspect set — the walk's visited mark, which needs no clearing.
type failCert struct {
	bits []uint64
	walk uint64
}

func (c *failCert) has(k int) bool { return c.bits[k>>6]&(1<<(k&63)) != 0 }

func (c *failCert) add(k int) bool {
	if c.has(k) {
		return false
	}
	c.bits[k>>6] |= 1 << (k & 63)
	return true
}

// heldPayload is one out-of-order arrival parked until its link sequence
// comes due.
type heldPayload struct {
	seq     uint32
	payload any
}

// reactor is one process's state machine (driver.Reactor).
type reactor struct {
	id    model.ProcID
	h     *driver.Handle
	net   *netsim.Network
	ctr   *metrics.Counters
	g     *overlay.Graph
	succ  []model.ProcID
	preds []model.ProcID
	// proposals is the run's read-only value table (Config.Proposals),
	// indexed by origin: what a VAL item's origin stands for.
	proposals []string
	store     *ProcResult

	// crash plan (protocol-level; the driver never kills us)
	victim  bool
	crashAt time.Duration

	// per-link FIFO restoration — flat slices indexed by successor /
	// predecessor position, carved from per-run pooled backing arrays
	sendSeq []uint32        // next seq per successor (succ order)
	expect  []uint32        // next expected seq per predecessor (pred order)
	reorder [][]heldPayload // early arrivals per predecessor (pred order)
	// delivered origins: this reactor's row of the run-wide bitmap
	delivered deliveredSet
	minOrigin model.ProcID // smallest delivered origin (decision candidate)
	minValue  string       // proposals[minOrigin], read when the candidate changes
	// crash certificates: fails[f] non-nil ⇒ f known crashed; bit k set ⇒
	// FAIL(f, Succ(f)[k]) held (lazily allocated — nil map crash-free)
	fails map[model.ProcID]*failCert
	// closure-walk scratch (excludable): the walk counter that stamps
	// failCert.walk, and the walk's stack
	walk  uint64
	stack []model.ProcID
	// outbox batching
	outbox       []item
	flushPending bool
	flushAt      time.Duration
	flushDelay   time.Duration

	started bool
	decided bool
	done    bool
}

func (rx *reactor) finish(st sim.Status, decision string) bool {
	*rx.store = ProcResult{Status: st, Decision: decision, Delivered: rx.delivered.Count()}
	rx.done = true
	return true
}

// emitMarkers sends the tombstone on every outgoing link, sequenced after
// everything already flushed.
func (rx *reactor) emitMarkers() {
	for k, s := range rx.succ {
		rx.net.Send(rx.id, s, marker{Seq: rx.sendSeq[k]})
		rx.sendSeq[k]++
	}
}

// crash emits the tombstone markers and halts. The unflushed outbox dies
// with the process — the exclusion rule soundly counts its items as never
// forwarded.
func (rx *reactor) crash() bool {
	rx.emitMarkers()
	return rx.finish(sim.StatusCrashed, "")
}

// deliver records origin q's value into the delivered set; it reports
// whether q was new.
func (rx *reactor) deliver(q model.ProcID) bool {
	if !rx.delivered.Add(uint32(q)) {
		return false
	}
	if rx.delivered.Count() == 1 || q < rx.minOrigin {
		rx.minOrigin, rx.minValue = q, rx.proposals[q]
	}
	return true
}

// markFail records FAIL(f, s); it reports whether the certificate is new.
func (rx *reactor) markFail(f, s model.ProcID) bool {
	if rx.fails == nil {
		rx.fails = make(map[model.ProcID]*failCert)
	}
	succ := rx.g.Succ(f)
	c := rx.fails[f]
	if c == nil {
		c = &failCert{bits: make([]uint64, (len(succ)+63)/64)}
		rx.fails[f] = c
	}
	for k, q := range succ {
		if q == s {
			return c.add(k)
		}
	}
	return false // s not a successor of f: malformed, never flooded
}

// ingestItems folds one envelope's news into the reactor's state.
func (rx *reactor) ingestItems(items []item) {
	for _, it := range items {
		switch it.Kind {
		case itemVal:
			if rx.deliver(model.ProcID(it.Origin)) {
				rx.outbox = append(rx.outbox, it)
			}
		case itemFail:
			if rx.markFail(model.ProcID(it.Origin), model.ProcID(it.Detector)) {
				rx.outbox = append(rx.outbox, it)
			}
		}
	}
}

// ingest processes one in-order payload from predecessor from: deliver and
// re-flood novel values and crash certificates; turn a tombstone into this
// process's own FAIL certificate. Pooled envelopes are recycled into the
// recipient's shard pool once consumed — the other half of the windowed
// payload construction (envBuilder grabs, ingest recycles).
func (rx *reactor) ingest(from model.ProcID, payload any) {
	switch p := payload.(type) {
	case *envelope:
		rx.ingestItems(p.Items)
		p.Items = nil
		rx.net.RecyclePayload(rx.net.ShardOf(rx.id), p)
	case marker:
		// from's channel to us is drained (FIFO: everything it sent before
		// the tombstone was processed above this call). Certify it.
		if rx.markFail(from, rx.id) {
			rx.outbox = append(rx.outbox, item{Kind: itemFail, Origin: uint32(from), Detector: uint32(rx.id)})
		}
	}
}

// predIndex resolves a sender to its position in the ascending
// predecessor list (linear scan: d stays single-digit in every overlay
// this package targets).
func (rx *reactor) predIndex(p model.ProcID) int {
	for i, q := range rx.preds {
		if q == p {
			return i
		}
	}
	panic("allconcur: message from a non-predecessor")
}

// enqueue restores per-link FIFO: process the payload if it is the next
// expected sequence number on its link, then drain any buffered
// continuation; park it otherwise.
func (rx *reactor) enqueue(m netsim.Message) {
	pi := rx.predIndex(m.From)
	seq := seqOf(m.Payload)
	if seq != rx.expect[pi] {
		rx.reorder[pi] = append(rx.reorder[pi], heldPayload{seq: seq, payload: m.Payload})
		return
	}
	rx.ingest(m.From, m.Payload)
	rx.expect[pi]++
	buf := rx.reorder[pi]
	for drained := true; drained; {
		drained = false
		for i := range buf {
			if buf[i].seq != rx.expect[pi] {
				continue
			}
			p := buf[i].payload
			last := len(buf) - 1
			buf[i] = buf[last]
			buf[last] = heldPayload{} // drop the payload reference
			buf = buf[:last]
			rx.ingest(m.From, p)
			rx.expect[pi]++
			drained = true
			break
		}
	}
	rx.reorder[pi] = buf
}

func seqOf(payload any) uint32 {
	switch p := payload.(type) {
	case *envelope:
		return p.Seq
	case marker:
		return p.Seq
	}
	panic("allconcur: unknown payload type")
}

// flushNow sends the outbox as one envelope per successor (shared item
// slice) and clears it. The handler only enqueues intent: the item batch
// is boxed ONCE, each per-successor entry rides the network's burst path
// (BurstSendVia), and envelope assembly — the per-successor header around
// the shared slice — happens inside the expansion job, from the recipient
// shard's payload pool.
func (rx *reactor) flushNow() {
	rx.flushPending = false
	if len(rx.outbox) == 0 {
		return
	}
	items := rx.outbox
	rx.outbox = nil
	var ctx any = items
	for k, s := range rx.succ {
		rx.net.BurstSendVia(rx.id, s, envBuilder{}, ctx, uint64(rx.sendSeq[k]))
		rx.sendSeq[k]++
	}
}

// complete reports whether every origin is accounted for: delivered, or
// provably undeliverable (excludable). The crash-free fast path never
// walks a closure, and the delivered set hands back only the gaps, from
// its first-missing watermark on.
func (rx *reactor) complete() bool {
	n := rx.g.N()
	if rx.delivered.Count() == n {
		return true
	}
	return rx.delivered.EachMissing(uint32(n), func(q uint32) bool {
		return rx.excludable(model.ProcID(q))
	})
}

// excludable resolves the suspect closure of missing origin q: every
// process that may hold q's value undelivered must be known crashed, and
// every channel out of one must be certified drained (FAIL received) or
// lead to another member of the closure. Any live successor with an
// uncertified channel means q's value may still be in flight.
//
// It runs once per missing origin per invocation of a crash run, so it
// allocates nothing: the stack is the reactor's, and membership in the
// closure is a stamp on the member's certificate entry (every member has
// one — being known crashed is what admits it).
func (rx *reactor) excludable(q model.ProcID) bool {
	rx.walk++
	rx.stack = append(rx.stack[:0], q)
	for len(rx.stack) > 0 {
		f := rx.stack[len(rx.stack)-1]
		rx.stack = rx.stack[:len(rx.stack)-1]
		drained := rx.fails[f]
		if drained == nil {
			return false // q not known crashed: its value may simply be slow
		}
		drained.walk = rx.walk
		for k, s := range rx.g.Succ(f) {
			if drained.has(k) {
				continue // s certified the f→s drain without surfacing q's value
			}
			if c := rx.fails[s]; c != nil {
				if c.walk != rx.walk {
					c.walk = rx.walk
					rx.stack = append(rx.stack, s)
				}
				continue // s crashed too: chase what s may have forwarded
			}
			return false // s is live and f→s is not certified drained yet
		}
	}
	return true
}

// React runs one invocation: first-invocation setup (flood own value, arm
// the crash), FIFO-ordered ingestion of every deliverable message, the
// termination check (with its mandatory final flush), and outbox flush
// scheduling.
//
// Deciding does NOT retire the reactor. A retired reactor's inbox closes,
// so a victim's tombstone marker landing at an already-decided successor
// s would silently vanish — FAIL(victim, s) would never exist and any
// process still missing the victim's value could block forever despite
// crashes < κ(G). Instead the decision is recorded once and the reactor
// stays in a relay-only mode — draining its inbox and re-flooding novel
// news — until the run quiesces (the final aborted invocation retires it
// with the recorded result intact).
func (rx *reactor) React(aborted bool) bool {
	if rx.done {
		return true
	}
	if aborted {
		if rx.decided {
			rx.done = true // quiescence: the relay-only tail is over
			return true
		}
		return rx.finish(sim.StatusBlocked, "")
	}
	if !rx.started {
		rx.started = true
		if rx.victim {
			if rx.crashAt <= 0 {
				return rx.crash() // dies before proposing anything
			}
			rx.h.WakeAfter(rx.crashAt)
		}
		rx.deliver(rx.id)
		rx.outbox = append(rx.outbox, item{Kind: itemVal, Origin: uint32(rx.id)})
		rx.flushNow() // own value leaves immediately, never batched
	}
	if rx.victim && rx.h.Now() >= rx.crashAt {
		if rx.decided {
			// Crashing after deciding: still emit the tombstones so each
			// successor certifies the drain, but keep the recorded decision —
			// the crash merely ends the relay-only tail.
			rx.emitMarkers()
			rx.done = true
			return true
		}
		return rx.crash()
	}
	for {
		m, ok, _ := rx.net.ReceiveNow(rx.id)
		if !ok {
			break
		}
		rx.enqueue(m)
	}
	if !rx.decided && rx.complete() {
		rx.flushNow() // mandatory: successors may still need this news
		rx.ctr.ObserveRound(1)
		*rx.store = ProcResult{Status: sim.StatusDecided, Decision: rx.minValue, Delivered: rx.delivered.Count()}
		rx.decided = true
		return false
	}
	if rx.flushPending && rx.h.Now() >= rx.flushAt {
		rx.flushNow()
	}
	if len(rx.outbox) > 0 && !rx.flushPending {
		rx.flushPending = true
		rx.flushAt = rx.h.Now() + rx.flushDelay
		rx.h.WakeAfter(rx.flushDelay)
	}
	return false
}

// Run executes one atomic-broadcast instance and returns per-process
// outcomes.
func Run(cfg Config) (*Result, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("%w: need at least two processes, have %d", ErrBadConfig, cfg.N)
	}
	if len(cfg.Proposals) != cfg.N {
		return nil, fmt.Errorf("%w: %d proposals for %d processes", ErrBadConfig, len(cfg.Proposals), cfg.N)
	}
	if err := cfg.Crashes.ValidateFor(cfg.N); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if cfg.Crashes.HasStepPoints() {
		return nil, fmt.Errorf("%w: allconcur honors only timed crash plans", ErrBadConfig)
	}
	g, err := cfg.Spec.Build(cfg.N, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	flushDelay := cfg.FlushDelay
	if flushDelay <= 0 {
		flushDelay = DefaultFlushDelay
	}
	crashAt := make(map[model.ProcID]time.Duration, 2)
	for _, tc := range cfg.Crashes.Timed() {
		crashAt[tc.P] = tc.At
	}

	var ctr metrics.Counters
	var nw *netsim.Network
	procs := make([]ProcResult, cfg.N)
	dcfg := driver.Config{
		MaxVirtualTime: cfg.MaxVirtualTime,
		MaxSteps:       cfg.MaxSteps,
		Complexity:     sim.StepsLinear,
		// Crashes stay out of the driver config on purpose: a driver crash
		// closes the victim's inbox at the instant, but the tombstone
		// protocol needs the victim to emit its markers itself.
	}
	newNet := driver.StandardNet(&nw, cfg.N, uint64(cfg.Seed)^0x93d1_4af2_0e67_b85c, &ctr, cfg.MinDelay, cfg.MaxDelay, cfg.NetOptions...)
	// All reactor hot state comes from four pooled backing arrays (the
	// reactors themselves, 2·|E| link sequence counters, |E| reorder-buffer
	// headers, n delivered rows of n bits) — per-process map and slice
	// allocations previously dominated setup and resident memory at n≥16k.
	rxs := make([]reactor, cfg.N)
	seqPool := make([]uint32, 2*g.Edges())
	bufPool := make([][]heldPayload, g.Edges())
	row := (cfg.N + 63) / 64
	bitPool := make([]uint64, cfg.N*row)
	out, err := driver.RunHandlers(dcfg, cfg.N, newNet, func(i int, h *driver.Handle) driver.Reactor {
		id := model.ProcID(i)
		at, victim := crashAt[id]
		succ, preds := g.Succ(id), g.Pred(id)
		sendSeq := seqPool[:len(succ):len(succ)]
		seqPool = seqPool[len(succ):]
		expect := seqPool[:len(preds):len(preds)]
		seqPool = seqPool[len(preds):]
		reorder := bufPool[:len(preds):len(preds)]
		bufPool = bufPool[len(preds):]
		rxs[i] = reactor{
			id:         id,
			h:          h,
			net:        nw,
			ctr:        &ctr,
			g:          g,
			succ:       succ,
			preds:      preds,
			proposals:  cfg.Proposals,
			store:      &procs[i],
			victim:     victim,
			crashAt:    at,
			sendSeq:    sendSeq,
			expect:     expect,
			reorder:    reorder,
			delivered:  deliveredSet{bits: bitPool[i*row : (i+1)*row : (i+1)*row]},
			flushDelay: flushDelay,
		}
		return &rxs[i]
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Procs: procs, Metrics: ctr.Read()}
	res.Elapsed = out.Elapsed
	res.VirtualTime = out.VirtualTime
	res.Steps = out.Steps
	res.Quiesced = out.Quiesced
	res.DeadlineExceeded = out.DeadlineExceeded
	res.StepsExceeded = out.StepsExceeded
	res.Sched = out.Sched
	return res, nil
}
