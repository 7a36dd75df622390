// Package driver is the single engine-dispatch layer of the repository:
// every protocol runner (the hybrid algorithms of internal/core, the
// message-passing baselines, the m&m comparator, and the extension stack)
// executes its processes through driver.Run or driver.RunHandlers, on the
// one execution engine: a vclock discrete-event scheduler. Each process is
// a cooperatively stepped coroutine (Run) or an inline reactor
// (RunHandlers); message transit is a timestamped delivery event; blocked
// executions are detected by quiescence — never by wall clock — and bounded
// by MaxVirtualTime / MaxSteps. Same inputs, same outcome, bit for bit.
//
// A protocol package provides two closures: a network constructor (the
// driver appends netsim.WithScheduler) and a per-process body. The body
// observes engine state only through the Handle it receives: Aborted
// (should I give up?), Killed (has a timed crash struck me?), Now (the run
// clock), and Sleep / WakeAfter (advance time without taking steps).
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

// Config carries the engine knobs shared by every protocol runner. The
// protocol-specific parts of a run (proposals, partitions, coins, crash
// step points) stay in the protocol package's own Config; this struct is
// only about HOW the processes are driven.
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
	// Complexity is the protocol's step-complexity hint (declared in the
	// registry as Info.SubQuadratic), consulted only when MaxSteps is
	// zero: sim.StepsQuadratic (the zero value) keeps the 24·n² default;
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
}

// NewNetFunc builds the run's simulated network. The driver appends
// netsim.WithScheduler; the protocol supplies everything else (seed,
// counters, delay policy).
// A nil NewNetFunc runs the processes without a network (pure shared-memory
// protocols).
type NewNetFunc func(extra ...netsim.Option) (*netsim.Network, error)

// Body is one process's protocol closure: execute process i's algorithm,
// observing engine state through h. The driver closes process i's inbox
// when the body returns.
type Body func(i int, h *Handle)

// Reactor is the inline event-handler form of a process body (DESIGN.md
// §11): instead of a straight-line function that blocks in receives, the
// protocol exposes a resumable state machine the scheduler invokes
// directly under its execution token — zero channel rendezvous, zero
// goroutines. The two forms are behaviorally interchangeable: a protocol
// implementing both must make the same decisions in the same rounds with
// the same message counts under either one.
type Reactor interface {
	// React runs one invocation: drain every deliverable message
	// (netsim.Network.ReceiveNow) and advance the state machine to its
	// next wait point. It must return instead of blocking — no Park, no
	// blocking Receive, no Handle.Sleep. The return value reports whether
	// the process has finished (decided, crashed, or blocked); after
	// returning true the reactor is never invoked again.
	//
	// aborted = true means the run was aborted (quiescence, deadline, or
	// step budget): the reactor must record its blocked outcome and return
	// true — the inline analogue of a blocking receive returning false.
	React(aborted bool) bool
}

// HandlerBody builds process i's reactor. It runs at spawn time (before
// the run's first event), so reactors exist in process order — mirroring
// the spawn-order first steps of coroutine bodies.
type HandlerBody func(i int, h *Handle) Reactor

// StandardNet returns the NewNetFunc shared by most protocol runners: a
// fully connected network over n processes with a package-specific seed
// derivation, the run's counters, and an optional uniform delay band.
// protoOpts carries the protocol Config's extra network options (e.g. a
// compiled NetworkProfile delay policy); it is applied after the uniform
// band, so a delay policy there wins. The constructed network is also
// stored through nw so the process bodies (created before the network
// exists) can reach it.
func StandardNet(nw **netsim.Network, n int, seed uint64, ctr *metrics.Counters, minDelay, maxDelay time.Duration, protoOpts ...netsim.Option) NewNetFunc {
	return func(extra ...netsim.Option) (*netsim.Network, error) {
		opts := []netsim.Option{netsim.WithSeed(seed), netsim.WithCounters(ctr)}
		if maxDelay > 0 {
			opts = append(opts, netsim.WithUniformDelay(minDelay, maxDelay))
		}
		opts = append(opts, protoOpts...)
		opts = append(opts, extra...)
		built, err := netsim.New(n, opts...)
		if err != nil {
			return nil, err
		}
		*nw = built
		return built, nil
	}
}

// Outcome reports the engine-level result of a run. Protocol packages copy
// it into their Result types (see Fill).
type Outcome struct {
	// Elapsed is the run duration on the virtual clock — always equal to
	// VirtualTime, so Results stay bit-reproducible.
	Elapsed time.Duration
	// VirtualTime is the virtual clock at the end of the run.
	VirtualTime time.Duration
	// Steps is the number of discrete events processed.
	Steps int64
	// Quiesced reports that the engine aborted the run because no
	// process could ever take another step — the deterministic "blocked
	// forever" verdict.
	Quiesced bool
	// DeadlineExceeded / StepsExceeded report that the engine cut
	// the run short at the MaxVirtualTime / MaxSteps bound. A bounded-out
	// run says nothing about the execution's fate — undecided processes
	// might still have progressed — so these verdicts are kept distinct
	// from Quiesced (genuine blocked-forever) and must never be conflated
	// with it by callers classifying non-decision.
	DeadlineExceeded bool
	StepsExceeded    bool
	// Sched counts the scheduler's internal work (events scheduled,
	// timer-wheel cascades, deepest bucket). Deterministic: same Config,
	// same counts.
	Sched vclock.SchedulerStats
}

// BoundedOut reports whether the run was cut short by an artificial bound
// (MaxVirtualTime or MaxSteps) rather than ending on its own.
func (o Outcome) BoundedOut() bool { return o.DeadlineExceeded || o.StepsExceeded }

// Fill copies the engine-level fields into a sim.Result.
func (o Outcome) Fill(res *sim.Result) {
	res.Elapsed = o.Elapsed
	res.VirtualTime = o.VirtualTime
	res.Steps = o.Steps
	res.Quiesced = o.Quiesced
	res.DeadlineExceeded = o.DeadlineExceeded
	res.StepsExceeded = o.StepsExceeded
	res.Sched = o.Sched
}

// Handle is a process body's view of the engine driving it.
type Handle struct {
	clock  *vclock.Scheduler
	proc   *vclock.Proc // the body's own process
	killed bool         // a timed crash has struck; written and read under the token
	inline bool         // the body is a Reactor: it must never suspend
}

// Now returns the run clock: the virtual clock, exact and deterministic.
// Protocols use it to timestamp externally visible events — e.g. the
// register run tags every operation's invocation and response instants so
// histories can be checked for linearizability.
func (h *Handle) Now() time.Duration { return time.Duration(h.clock.Now()) }

// Aborted reports whether the run has been aborted (quiescence, deadline,
// or step budget): the body should record a blocked outcome and unwind
// promptly.
func (h *Handle) Aborted() bool { return h.clock.Aborted() }

// Killed reports whether a timed crash has struck this process; the body
// must halt (as crashed) at the next step point that observes it.
func (h *Handle) Killed() bool { return h.killed }

// WakeAfter schedules a wake of this process's reactor d from now — the
// handler body's substitute for Sleep: where a coroutine suspends, a
// reactor schedules its future work as an event and returns, then
// observes Now() at the next invocation to see whether its deadline has
// passed. Multiple pending wakes coalesce like message deliveries do (a
// reactor is invoked once per Wake, and a wake of a finished process is
// a no-op), so timers racing a decision are harmless.
func (h *Handle) WakeAfter(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.clock.AtEvent(h.clock.Now()+vclock.Time(d), (*wakeup)(h))
}

// wakeup is a Handle scheduled as its own timer event: the conversion from
// *Handle allocates nothing, where a closure per timer would.
type wakeup Handle

// Fire wakes the handle's process. It resolves w.proc at fire time, not at
// schedule time: a reactor built by HandlerBody may schedule its first timer
// before RunHandlers has bound the spawned Proc back onto the Handle.
func (w *wakeup) Fire() { w.proc.Wake() }

// Sleep suspends the calling body for d of virtual time (zero wall-clock
// cost). It returns false when the run was aborted before the full
// duration elapsed. Sleep must only be called from the body's own
// process context, and never from a Reactor — a handler body has no
// goroutine to suspend (DESIGN.md §11); it must instead schedule its
// future work as an event and return.
func (h *Handle) Sleep(d time.Duration) bool {
	if h.inline {
		panic("driver: Sleep called from a handler body (reactors must not suspend)")
	}
	if d <= 0 {
		return !h.Aborted()
	}
	deadline := h.clock.Now() + vclock.Time(d)
	h.clock.AtEvent(deadline, (*wakeup)(h))
	// Message deliveries wake the same coroutine; re-park until the
	// deadline event (or a later one) has advanced the clock far enough.
	for h.clock.Now() < deadline {
		if !h.proc.Park() {
			return false
		}
	}
	return true
}

// Run executes n coroutine process bodies on a deterministic
// discrete-event scheduler and returns the engine-level outcome: same
// inputs, same Outcome. Blocked runs end at quiescence.
func Run(cfg Config, n int, newNet NewNetFunc, body Body) (Outcome, error) {
	return run(cfg, n, newNet, func(clock *vclock.Scheduler, nw *netsim.Network, i int, h *Handle) *vclock.Proc {
		return clock.Spawn(procName(i), func() {
			body(i, h)
			closeInbox(nw, i)
		})
	})
}

// RunHandlers is the handler-body twin of Run: it executes n inline
// handler processes (one Reactor each), the scheduler invoking each
// reactor directly instead of rendezvousing with a goroutine.
func RunHandlers(cfg Config, n int, newNet NewNetFunc, mk HandlerBody) (Outcome, error) {
	return run(cfg, n, newNet, func(clock *vclock.Scheduler, nw *netsim.Network, i int, h *Handle) *vclock.Proc {
		h.inline = true
		r := mk(i, h)
		return clock.SpawnHandler(procName(i), func(aborted bool) {
			if r.React(aborted) {
				h.proc.Finish()
				closeInbox(nw, i)
			}
		})
	})
}

func procName(i int) string { return fmt.Sprintf("p%d", i) }

// closeInbox closes process i's inbox once its body has finished.
func closeInbox(nw *netsim.Network, i int) {
	if nw != nil {
		nw.CloseInbox(model.ProcID(i))
	}
}

// run owns the dispatch lifecycle both body forms share: crash-schedule
// validation, clock and network construction, process spawning (spawn
// builds process i in its body form), timed crash installation, the run
// itself, and network shutdown.
func run(cfg Config, n int, newNet NewNetFunc,
	spawn func(clock *vclock.Scheduler, nw *netsim.Network, i int, h *Handle) *vclock.Proc) (Outcome, error) {
	if err := cfg.Crashes.ValidateFor(n); err != nil {
		return Outcome{}, fmt.Errorf("%w: %v", ErrBadCrashes, err)
	}
	// The topology size decides both the default step budget and whether
	// the window expansion shards (vclock.ShardsFor).
	clock := vclock.New(
		vclock.WithDeadline(vclock.Time(cfg.MaxVirtualTime)),
		vclock.WithMaxSteps(resolveMaxSteps(cfg.MaxSteps, n, cfg.Complexity)),
		vclock.WithShards(vclock.ShardsFor(n)),
	)
	var nw *netsim.Network
	if newNet != nil {
		var err error
		if nw, err = newNet(netsim.WithScheduler(clock)); err != nil {
			return Outcome{}, err
		}
	}

	handles := make([]Handle, n)
	for i := range handles {
		h := &handles[i]
		h.clock = clock
		h.proc = spawn(clock, nw, i, h)
		if nw != nil {
			nw.Bind(model.ProcID(i), h.proc)
		}
	}

	// Timed crashes: at each virtual instant, mark the victim killed and
	// close its inbox; the victim halts at its next step point. Timed()
	// returns a sorted slice, keeping event installation deterministic.
	for _, tc := range cfg.Crashes.Timed() {
		clock.At(vclock.Time(tc.At), func() {
			handles[tc.P].killed = true
			closeInbox(nw, int(tc.P))
		})
	}

	out := clock.Run()
	if nw != nil {
		nw.Shutdown()
	}
	return Outcome{
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
