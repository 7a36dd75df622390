// Package driver is the one engine-dispatch layer (DESIGN.md §5): every
// protocol runs its processes through RunHandlers, each process an inline
// reactor on a vclock scheduler that observes the engine only through its
// Handle, and RunHandlers reports how the run ended as a sim.Engine record.
package driver

import (
	"errors"
	"fmt"
	"time"

	"allforone/internal/failures"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/sim"
	"allforone/internal/vclock"
)

// ErrBadCrashes reports a crash schedule referencing processes outside the
// run — rejected before any process is spawned, instead of panicking when
// the engine indexes its per-process crash state.
var ErrBadCrashes = errors.New("driver: crash schedule exceeds the run's process count")

// Config carries the engine knobs shared by every protocol runner; a runner
// fills MaxVirtualTime, MaxSteps and Crashes from its run's sim.Setup.
// The protocol-specific parts of a run (proposals, partitions, coins, crash
// step points) stay with the protocol; this struct is only about HOW the
// processes are driven.
type Config struct {
	// MaxVirtualTime bounds the virtual clock of a run: once the next
	// event lies past the bound the run is aborted. Zero means unbounded
	// (quiescence detection and MaxSteps still bound stuck runs).
	MaxVirtualTime time.Duration
	// MaxSteps bounds the number of scheduler events of a run — the
	// deterministic guard against executions that never converge.
	// Zero derives the bound from the topology size and the protocol's
	// declared step complexity (sim.DefaultMaxStepsHint: ~Θ(n²) for
	// all-to-all protocols, ~8192·n for sparse-overlay ones); negative
	// means unbounded. Explicit positive values are authoritative.
	MaxSteps int64
	// Complexity is the protocol's step-complexity hint, declared here by
	// each sparse adapter, consulted only when MaxSteps is zero:
	// sim.StepsQuadratic (the zero value) keeps the 24·n² default;
	// sim.StepsLinear shapes the default as O(n) so a sparse protocol at
	// n=100k is not granted a 240-billion-step budget before the
	// runaway guard fires.
	Complexity sim.StepComplexity
	// Workers is ignored.
	//
	// Deprecated: a run expands its sends on the execution token alone, so
	// there is no width to set. The field remains so that existing callers
	// compile.
	Workers int
	// Crashes supplies the timed (virtual-instant) part of the failure
	// pattern: at each instant the victim's Killed flag is raised and its
	// inbox closed, so it halts at its next step point. Step-point crashes
	// remain the protocol's own business. Nil is crash-free.
	Crashes *failures.Schedule
	// Keep hands the protocol its keep slot; the zero Keep keeps nothing.
	Keep Keep
}

// Keep is a protocol's hold on its keep slot (vclock.KeepProtocol): the
// per-run state it builds rides the recycled scheduler to the next run on
// it, as the network and the process records do, so a protocol needs no
// pool of its own. RunHandlers calls both functions, and neither after it
// returns; it only calls them, so closures over the caller's variables stay
// on its stack.
type Keep struct {
	// Load gets, once the run's scheduler is drawn and before the network
	// and the processes are built, what the last run on that scheduler
	// stored — nil on a new scheduler.
	Load func(kept any)
	// Store returns, once the run has ended and its network is shut down,
	// what the next run's Load gets. By then the protocol has read what it
	// needs of the run and cleared the state of it: the scheduler goes back
	// to the pool right after, and another goroutine may draw it.
	Store func() any
}

// NewNetFunc builds the run's simulated network on the run's scheduler
// (netsim.WithScheduler(clock)); the protocol supplies everything else
// (seed, counters, delay policy).
// A nil NewNetFunc runs the processes without a network (pure shared-memory
// protocols).
type NewNetFunc func(clock *vclock.Scheduler) (*netsim.Network, error)

// Reactor is a process body (DESIGN.md §5): a resumable state machine the
// scheduler invokes directly under its execution token — zero channel
// rendezvous, zero goroutines, and no adapter: it is the process's
// vclock.Handler. Its state is where the process waits; every step between
// two waits runs inside one invocation.
//
// React runs one invocation: drain every deliverable message
// (netsim.Network.ReceiveNow) and advance the state machine to its next
// wait point. It must return instead of blocking. The return value reports
// whether the process has finished (decided, crashed, or blocked); after
// returning true the reactor is never invoked again, and the process's
// inbox closes. aborted = true means the run was aborted (quiescence,
// deadline, or step budget): the reactor must record its blocked outcome
// and return true.
type Reactor = vclock.Handler

// ReactorFunc adapts a function to a Reactor.
type ReactorFunc func(aborted bool) bool

// React calls f(aborted).
func (f ReactorFunc) React(aborted bool) bool { return f(aborted) }

// HandlerBody builds process i's reactor. It runs at spawn time (before
// the run's first event), so reactors exist, and take their first steps, in
// process order. It may keep h, whose clock methods (Now, Aborted,
// WakeAfter) work from the process's first invocation on.
type HandlerBody func(i int, h *Handle) Reactor

// StandardNet returns the NewNetFunc shared by the protocol runners: a
// fully connected network over n processes with a package-specific seed
// derivation, the run's counters, and the run's network options protoOpts
// (sim.Setup.NetOption, e.g. a compiled NetworkProfile delay policy).
// Protocols pass a zero minDelay, maxDelay and set their delay policy in
// protoOpts; a positive maxDelay adds a uniform delay band before protoOpts,
// for callers that drive the network without a protocol Config. The
// constructed network is also stored through nw so the process bodies
// (created before the network exists) can reach it.
func StandardNet(nw **netsim.Network, n int, seed uint64, ctr *metrics.Counters, minDelay, maxDelay time.Duration, protoOpts ...netsim.Option) NewNetFunc {
	return func(clock *vclock.Scheduler) (*netsim.Network, error) {
		// Options are values and New keeps none of them, so this list
		// lives on the stack.
		var buf [6]netsim.Option
		opts := append(buf[:0], netsim.WithSeed(seed), netsim.WithCounters(ctr))
		if maxDelay > 0 {
			opts = append(opts, netsim.WithUniformDelay(minDelay, maxDelay))
		}
		opts = append(opts, protoOpts...)
		built, err := netsim.New(n, append(opts, netsim.WithScheduler(clock))...)
		if err != nil {
			return nil, err
		}
		*nw = built
		return built, nil
	}
}

// Handle is a process body's view of the engine driving it, and its
// process's record: RunHandlers keeps the run's Handles in one slab, which
// travels with the recycled scheduler (vclock.KeepProcs), so spawning a
// process allocates nothing. A record holds the process's vclock.Proc, whose
// handler is the process's reactor, its inbox (netsim.Inbox, bound to the
// network with BindInbox) and its crash flag. What one delivery reads and
// writes (the inbox's first message and count, the Proc's state and
// scheduler) and what one invocation reads (the Proc's handler, Killed, Now
// through the Proc's scheduler, ReceiveNow's inbox words) lie in its first
// 64 bytes; the inbox's ring and the rest follow. TestProcessRecordHotLine
// pins the layout.
type Handle struct {
	proc   vclock.Proc  // 0–32: scheduler, reactor, state
	killed bool         // a timed crash has struck; written and read under the token
	id     int32        // the process's id
	inbox  netsim.Inbox // 40–64 its first message and count; then its ring
	nw     *netsim.Network
	_      [24]byte // to 128 bytes: a slab's records start on a cache line
}

// Now returns the run clock: the virtual clock, exact and deterministic.
// Protocols use it to timestamp externally visible events — e.g. the
// register run tags every operation's invocation and response instants so
// histories can be checked for linearizability. Like Aborted and WakeAfter
// it reads the clock through the process, so it may be called from the
// process's first invocation on, not while HandlerBody builds its reactor.
func (h *Handle) Now() time.Duration { return time.Duration(h.proc.Scheduler().Now()) }

// Aborted reports whether the run has been aborted (quiescence, deadline,
// or step budget): the body should record a blocked outcome and unwind
// promptly.
func (h *Handle) Aborted() bool { return h.proc.Scheduler().Aborted() }

// Killed reports whether a timed crash has struck this process; the body
// must halt (as crashed) at the next step point that observes it.
func (h *Handle) Killed() bool { return h.killed }

// WakeAfter schedules a wake of this process's reactor d from now: a
// reactor waits for time to pass by scheduling its future work as an event
// and returning, then observes Now() at the next invocation to see whether
// its deadline has passed — deliveries may wake it earlier. Multiple pending
// wakes coalesce like message deliveries do (a reactor is invoked once per
// Wake, and a wake of a finished process is a no-op), so timers racing a
// decision are harmless.
func (h *Handle) WakeAfter(d time.Duration) {
	if d < 0 {
		d = 0
	}
	clock := h.proc.Scheduler()
	clock.AtEvent(clock.Now()+vclock.Time(d), (*wakeup)(h))
}

// wakeup is a Handle scheduled as its own timer event: the conversion from
// *Handle allocates nothing, where a closure per timer would.
type wakeup Handle

// Fire wakes the handle's process.
func (w *wakeup) Fire() { w.proc.Wake() }

// strike is a Handle scheduled as its process's timed crash: it raises the
// Killed flag and closes the inbox, allocating nothing.
type strike Handle

// Fire strikes the handle's process.
func (c *strike) Fire() {
	c.killed = true
	if c.nw != nil {
		c.nw.CloseInbox(model.ProcID(c.id))
	}
}

// RunHandlers executes n processes, one Reactor each, on a deterministic
// discrete-event scheduler and returns the engine's record of the run: same
// inputs, same record. It owns the run's lifecycle: crash-schedule
// validation, clock and network construction, process spawning, timed crash
// installation, the run itself, network shutdown, and handing the clock —
// with the network, the process records and the protocol's kept state
// (Config.Keep) riding on it — back for the next run
// (vclock.Scheduler.Recycle). Blocked runs end at quiescence.
func RunHandlers(cfg Config, n int, newNet NewNetFunc, mk HandlerBody) (sim.Engine, error) {
	if err := cfg.Crashes.ValidateFor(n); err != nil {
		return sim.Engine{}, fmt.Errorf("%w: %v", ErrBadCrashes, err)
	}
	// The topology size decides both the default step budget and whether
	// the window expansion shards (vclock.ShardsFor).
	clock := vclock.New(
		vclock.WithDeadline(vclock.Time(cfg.MaxVirtualTime)),
		vclock.WithMaxSteps(resolveMaxSteps(cfg.MaxSteps, n, cfg.Complexity)),
		vclock.WithShards(vclock.ShardsFor(n)),
	)
	if cfg.Keep.Load != nil {
		cfg.Keep.Load(clock.Kept(vclock.KeepProtocol))
	}
	var nw *netsim.Network
	if newNet != nil {
		var err error
		if nw, err = newNet(clock); err != nil {
			return sim.Engine{}, err
		}
	}

	slab, _ := clock.Kept(vclock.KeepProcs).(*[]Handle)
	if slab == nil {
		slab = new([]Handle)
	}
	if cap(*slab) < n {
		*slab = make([]Handle, n)
	}
	handles := (*slab)[:n]
	for i := range handles {
		h := &handles[i]
		h.id, h.nw = int32(i), nw
		// The reactor is the Proc's handler: the scheduler invokes it
		// directly, and when it reports finished the network closes the
		// inbox of the process spawned i-th, process i
		// (vclock.Deliverer.Retire).
		clock.Inline(&h.proc, mk(i, h))
		if nw != nil {
			nw.BindInbox(model.ProcID(i), &h.proc, &h.inbox)
		}
	}

	// Timed crashes: at each virtual instant, mark the victim killed and
	// close its inbox; the victim halts at its next step point. Timed()
	// returns a sorted slice, keeping event installation deterministic.
	for _, tc := range cfg.Crashes.Timed() {
		clock.AtEvent(vclock.Time(tc.At), (*strike)(&handles[tc.P]))
	}

	out := clock.Run()
	if nw != nil {
		nw.Shutdown()
	}
	if cfg.Keep.Store != nil {
		clock.Keep(vclock.KeepProtocol, cfg.Keep.Store())
	}
	// Nothing of the run may stay reachable from the kept slab: each record
	// keeps only its inbox's ring, emptied.
	for i := range handles {
		h := &handles[i]
		h.inbox.Reset()
		*h = Handle{inbox: h.inbox}
	}
	clock.Keep(vclock.KeepProcs, slab)
	clock.Recycle()
	return sim.Engine{
		Elapsed:          time.Duration(out.Now),
		VirtualTime:      time.Duration(out.Now),
		Steps:            out.Steps,
		Quiesced:         out.Quiesced,
		DeadlineExceeded: out.DeadlineExceeded,
		StepsExceeded:    out.StepsExceeded,
		Sched:            out.Stats,
	}, nil
}

// resolveMaxSteps maps the Config.MaxSteps convention onto the scheduler's:
// zero derives the budget from the topology size and complexity hint,
// negative means unbounded (vclock: 0), explicit positive values pass
// through.
func resolveMaxSteps(maxSteps int64, n int, c sim.StepComplexity) int64 {
	if maxSteps == 0 {
		return sim.DefaultMaxStepsHint(n, c)
	}
	if maxSteps < 0 {
		return 0 // vclock: 0 = unbounded
	}
	return maxSteps
}
