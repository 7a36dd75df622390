// Package allconcur implements leaderless atomic broadcast over a sparse
// overlay digraph, after AllConcur (Poke, Hoefler, Glass 2017): every
// process floods its proposal over the overlay and decides, with no leader,
// the smallest delivered origin's value once its delivered set is provably
// complete. DESIGN.md §6 describes the flooding, the crash-exclusion rule,
// the envelope invariant and the per-block delivered sets.
package allconcur

import (
	"fmt"
	"math/bits"
	"time"

	"allforone/internal/driver"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/overlay"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// flushDelay is the outbox batching window: news items arriving within it
// leave in one envelope. Half the typical profile delay band — small
// against dissemination latency, large enough to coalesce a delivery burst.
const flushDelay = 100 * time.Microsecond

// ProcResult is one process's outcome.
type ProcResult struct {
	Status sim.Status
	// Decision is the decided value (StatusDecided only).
	Decision string
	// Delivered is the size of the delivered set when the execution ended
	// (diagnostic: how far dissemination got before a block or crash).
	Delivered int
	// digest is an order-insensitive digest of the delivered set (its
	// Digest): Violations compares it across decided processes. It is
	// unexported, so encoded Outcomes, and their hashes, leave it out.
	digest uint64
}

// Result aggregates an atomic-broadcast run.
type Result struct {
	Procs   []ProcResult
	Metrics metrics.Snapshot
	sim.Engine
}

// failWord is the Word of a FAIL item; no delivered row is 2³²·64 bits wide.
const failWord = ^uint32(0)

// item is one unit of flooded news: 12 bytes and no pointer, so the
// collector neither scans nor clears the item arrays a flush allocates.
// A VAL item is one 64-origin block of the sender's delivered row: Word is
// the block index and Hi:Lo the mask of the origins the sender delivered
// in that block since its previous flush. Origins are handles into the
// run's proposal table (reactor.proposals); no value travels. A FAIL item
// (Word == failWord) certifies that process Hi drained the channel out of
// crashed process Lo.
type item struct {
	Word uint32 // VAL: block index into the delivered row; FAIL: failWord
	Lo   uint32 // VAL: mask bits 0..31; FAIL: the crashed process
	Hi   uint32 // VAL: mask bits 32..63; FAIL: the successor certifying the drain
}

// valItem is the VAL item announcing the origins of mask in block w.
func valItem(w int, mask uint64) item {
	return item{Word: uint32(w), Lo: uint32(mask), Hi: uint32(mask >> 32)}
}

// failItem is the FAIL item certifying FAIL(f, s).
func failItem(f, s model.ProcID) item { return item{Word: failWord, Lo: uint32(f), Hi: uint32(s)} }

// mask is a VAL item's origin mask.
func (it item) mask() uint64 { return uint64(it.Hi)<<32 | uint64(it.Lo) }

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
// recipient's shard, from the network's payload pool. ctx is the boxed
// shared item batch (boxed once per flush, not once per successor) and arg
// the link's sequence number.
type envBuilder struct{}

// envelopeBytes is what one pooled envelope contributes to the
// PooledPayloadBytes stat: the envelope header itself (the item slice is
// shared across the flush's d envelopes and counted by none of them). It
// is the header's size on a 64-bit platform — a 4-byte Seq padded to 8
// plus a 24-byte slice header — fixed so that the stat, and every hash of
// an Outcome that carries it, is the same on every platform.
const envelopeBytes = 32

// BuildPayload implements netsim.BurstBuilder.
func (envBuilder) BuildPayload(nw *netsim.Network, ctx any, arg uint64) (any, int) {
	env, _ := nw.GrabPayload().(*envelope)
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
// single word test. Each word of the row sits beside the same word as the
// reactor's last flush left it (block), which the outbox compares it with.
type deliveredSet struct {
	blocks []block
	count  int
	low    int // first-missing watermark: every word before blocks[low] is full
}

// block is one 64-origin word of a delivered row (block w: origins w·64 …
// w·64+63) and that word as the last flush left it.
type block struct {
	got, flushed uint64
}

// Count returns the number of ids in the set.
func (s *deliveredSet) Count() int { return s.count }

// AddBlock inserts the ids of mask in word w (ids w·64 + bit); it returns
// the ones that were absent.
func (s *deliveredSet) AddBlock(w int, mask uint64) uint64 {
	novel := mask &^ s.blocks[w].got
	s.blocks[w].got |= novel
	s.count += bits.OnesCount64(novel)
	return novel
}

// Digest returns a 64-bit digest of the set's members: a hash of its row,
// so it depends on which ids the set holds, not on the order they arrived
// in. It costs one pass over the n/64 words of the row.
func (s *deliveredSet) Digest() uint64 {
	h := uint64(len(s.blocks))
	for _, b := range s.blocks {
		h ^= b.got
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

// EachMissing calls fn for every id in [0, n) absent from the set, in
// ascending order, stopping at the first rejection; it reports whether fn
// accepted every gap. The set only grows, so the words found full at the
// front are skipped for good (the watermark) and a call costs what is
// still missing, not n.
func (s *deliveredSet) EachMissing(n uint32, fn func(uint32) bool) bool {
	for s.low < len(s.blocks) && s.blocks[s.low].got == ^uint64(0) {
		s.low++
	}
	for w := s.low; w < len(s.blocks); w++ {
		for gaps := ^s.blocks[w].got; gaps != 0; gaps &= gaps - 1 {
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
	// outbox: the blocks of the delivered row that gained origins since the
	// last flush (touched lists each block whose two words differ, in
	// first-touch order), and the novel FAIL items pending
	touched      []uint32
	failsOut     []item
	flushPending bool
	flushAt      time.Duration

	started bool
	decided bool
	done    bool
}

func (rx *reactor) finish(st sim.Status, decision string) bool {
	*rx.store = ProcResult{Status: st, Decision: decision, Delivered: rx.delivered.Count(), digest: rx.delivered.Digest()}
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
// with the process — the exclusion rule soundly counts its news as never
// forwarded.
func (rx *reactor) crash() bool {
	rx.emitMarkers()
	return rx.finish(sim.StatusCrashed, "")
}

// deliver records the origins of mask in block w of the delivered row and
// queues the block for the next flush. Origins already delivered are
// ignored; the smallest new one is the decision candidate's challenger.
func (rx *reactor) deliver(w int, mask uint64) {
	b := rx.delivered.blocks[w]
	untouched := b.got == b.flushed
	first := rx.delivered.Count() == 0
	novel := rx.delivered.AddBlock(w, mask)
	if novel == 0 {
		return
	}
	if untouched {
		rx.touched = append(rx.touched, uint32(w))
	}
	if q := model.ProcID(w<<6 + bits.TrailingZeros64(novel)); first || q < rx.minOrigin {
		rx.minOrigin, rx.minValue = q, rx.proposals[q]
	}
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

// ingestItems folds one envelope's news into the reactor's state. The
// envelope is ingested whole before complete() looks at anything, so the
// order of its items carries no meaning.
func (rx *reactor) ingestItems(items []item) {
	for _, it := range items {
		if it.Word != failWord {
			rx.deliver(int(it.Word), it.mask())
		} else if rx.markFail(model.ProcID(it.Lo), model.ProcID(it.Hi)) {
			rx.failsOut = append(rx.failsOut, it)
		}
	}
}

// ingest processes one in-order payload from predecessor from: deliver and
// re-flood novel values and crash certificates; turn a tombstone into this
// process's own FAIL certificate. Pooled envelopes are recycled into the
// network's payload pool once consumed — the other half of the windowed
// payload construction (envBuilder grabs, ingest recycles).
func (rx *reactor) ingest(from model.ProcID, payload any) {
	switch p := payload.(type) {
	case *envelope:
		rx.ingestItems(p.Items)
		p.Items = nil
		rx.net.RecyclePayload(p)
	case marker:
		// from's channel to us is drained (FIFO: everything it sent before
		// the tombstone was processed above this call). Certify it.
		if rx.markFail(from, rx.id) {
			rx.failsOut = append(rx.failsOut, failItem(from, rx.id))
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

// takeOutbox builds the pending news into one exactly-sized item slice —
// a VAL item per touched block, holding the block's origins delivered
// since the last flush, then the FAIL items — and clears the outbox; nil
// when nothing is pending.
func (rx *reactor) takeOutbox() []item {
	if len(rx.touched)+len(rx.failsOut) == 0 {
		return nil
	}
	items := make([]item, 0, len(rx.touched)+len(rx.failsOut))
	row := rx.delivered.blocks
	for _, w := range rx.touched {
		b := &row[w]
		items = append(items, valItem(int(w), b.got&^b.flushed))
		b.flushed = b.got
	}
	items = append(items, rx.failsOut...)
	rx.touched, rx.failsOut = rx.touched[:0], rx.failsOut[:0]
	return items
}

// flushNow sends the outbox as one envelope per successor (shared item
// slice) and clears it. The handler only enqueues intent: the item batch
// is boxed ONCE, each per-successor entry rides the network's burst path
// (BurstSendVia), and envelope assembly — the per-successor header around
// the shared slice — happens inside the expansion job, from the network's
// payload pool.
func (rx *reactor) flushNow() {
	rx.flushPending = false
	items := rx.takeOutbox()
	if items == nil {
		return
	}
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
		rx.deliver(int(rx.id>>6), 1<<(rx.id&63))
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
		*rx.store = ProcResult{Status: sim.StatusDecided, Decision: rx.minValue, Delivered: rx.delivered.Count(), digest: rx.delivered.Digest()}
		rx.decided = true
		return false
	}
	if rx.flushPending && rx.h.Now() >= rx.flushAt {
		rx.flushNow()
	}
	if len(rx.touched)+len(rx.failsOut) > 0 && !rx.flushPending {
		rx.flushPending = true
		rx.flushAt = rx.h.Now() + flushDelay
		rx.h.WakeAfter(flushDelay)
	}
	return false
}

// runScenario runs one registry-validated atomic-broadcast instance. Every
// process that decides delivers the same complete set and decides the
// value of the smallest delivered origin id. The overlay's vertex
// connectivity is the fault budget: κ(G) ≥ f+1 keeps f crashes safe. The
// crash pattern is timed and honored by the protocol itself: a victim
// halts at its crash instant after emitting tombstone markers (its
// unflushed outbox dies with it). MaxSteps 0 derives the sparse default
// (sim.StepsLinear).
func runScenario(sc protocol.Scenario) (*protocol.Outcome, error) {
	props := sc.Workload.Values
	n := len(props)
	setup, err := sc.Setup()
	if err != nil {
		return nil, err
	}
	// The registry validated the spec for n (overlay.Spec.Validate: n ≥ 2
	// and a degree that fits), so a failure here is the build's own.
	g, err := sc.Topology.Overlay.Build(n, setup.Seed)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", protocol.ErrBadScenario, err)
	}
	crashAt := make(map[model.ProcID]time.Duration, 2)
	for _, tc := range setup.Crashes.Timed() {
		crashAt[tc.P] = tc.At
	}

	var ctr metrics.Counters
	var nw *netsim.Network
	procs := make([]ProcResult, n)
	dcfg := driver.Config{
		MaxVirtualTime: setup.MaxVirtualTime,
		MaxSteps:       setup.MaxSteps,
		Complexity:     sim.StepsLinear,
		// Crashes stay out of the driver config on purpose: a driver crash
		// closes the victim's inbox at the instant, but the tombstone
		// protocol needs the victim to emit its markers itself.
	}
	newNet := driver.StandardNet(&nw, n, uint64(setup.Seed)^0x93d1_4af2_0e67_b85c, &ctr, 0, 0, setup.NetOption)
	// All reactor hot state comes from five pooled backing arrays (the
	// reactors themselves, 2·|E| link sequence counters, |E| reorder-buffer
	// headers, n delivered rows of n bits with their flushed words, n
	// touched-block lists of n/64 entries) — per-process map and slice allocations
	// previously dominated setup and resident memory at n≥16k.
	rxs := make([]reactor, n)
	seqPool := make([]uint32, 2*g.Edges())
	bufPool := make([][]heldPayload, g.Edges())
	row := (n + 63) / 64
	blockPool := make([]block, n*row)
	touchPool := make([]uint32, n*row)
	out, err := driver.RunHandlers(dcfg, n, newNet, func(i int, h *driver.Handle) driver.Reactor {
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
			id:        id,
			h:         h,
			net:       nw,
			ctr:       &ctr,
			g:         g,
			succ:      succ,
			preds:     preds,
			proposals: props,
			store:     &procs[i],
			victim:    victim,
			crashAt:   at,
			sendSeq:   sendSeq,
			expect:    expect,
			reorder:   reorder,
			delivered: deliveredSet{blocks: blockPool[i*row : (i+1)*row : (i+1)*row]},
			touched:   touchPool[i*row : i*row : (i+1)*row],
		}
		return &rxs[i]
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Procs: procs, Metrics: ctr.Read(), Engine: out}
	o := &protocol.Outcome{
		Protocol: ProtocolName,
		Procs:    make([]protocol.ProcOutcome, n),
		Metrics:  res.Metrics,
		Engine:   res.Engine,
		Raw:      res,
	}
	for i, pr := range procs {
		o.Procs[i] = protocol.ProcOutcome{Status: pr.Status}
		if pr.Status == sim.StatusDecided {
			o.Procs[i].Decision = pr.Decision
			o.Procs[i].Round = 1 // atomic broadcast is a single logical round
		}
	}
	return o, nil
}
