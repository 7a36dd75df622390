// Package driver is the single engine-dispatch layer of the repository:
// every protocol runner (the hybrid algorithms of internal/core, the
// message-passing baselines, the m&m comparator, and the extension stack)
// executes its per-process closures through driver.Run, which owns the
// choice between the two execution engines:
//
//   - sim.EngineVirtual (the default): each process is a cooperatively
//     stepped coroutine on a vclock discrete-event scheduler; message
//     transit is a timestamped delivery event; blocked executions are
//     detected by quiescence — never by wall clock — and bounded by
//     MaxVirtualTime / MaxSteps. Same inputs, same outcome, bit for bit.
//   - sim.EngineRealtime: the goroutine-per-process backend. Interleavings
//     come from the Go scheduler, stuck runs are aborted by a wall-clock
//     timer, and results are NOT reproducible. Kept as a differential
//     check that no protocol depends on the virtual engine's scheduling
//     discipline.
//
// A protocol package provides two closures: a network constructor (driver
// appends the engine-specific netsim options — the virtual engine attaches
// its scheduler) and a per-process body. The body observes engine state
// only through the Handle it receives: Aborted (should I give up?), Killed
// (has a timed crash struck me?), Done (the realtime abort channel for
// blocking receives), and Sleep (advance time without taking steps). That
// contract is what lets one protocol implementation run unchanged on both
// engines.
package driver

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"allforone/internal/failures"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/sim"
	"allforone/internal/vclock"
)

// DefaultTimeout bounds realtime-engine runs whose liveness condition may
// not hold. The virtual engine never consults it: blocked runs end at
// quiescence, and runaway runs at the MaxVirtualTime / MaxSteps bounds.
const DefaultTimeout = 30 * time.Second

// ErrBadEngine reports an unknown Config.Engine value.
var ErrBadEngine = errors.New("driver: unknown engine")

// ErrBadCrashes reports a crash schedule referencing processes outside the
// run — rejected before any process is spawned, instead of panicking when
// the engine indexes its per-process crash state.
var ErrBadCrashes = errors.New("driver: crash schedule exceeds the run's process count")

// ErrBadBody reports a body-form/engine combination the driver cannot run:
// inline handler bodies exist only under the virtual engine (the realtime
// engine's blocking receives need a goroutine per process).
var ErrBadBody = errors.New("driver: handler bodies require the virtual engine")

// Config carries the engine knobs shared by every protocol runner. The
// protocol-specific parts of a run (proposals, partitions, coins, crash
// step points) stay in the protocol package's own Config; this struct is
// only about HOW the processes are driven.
type Config struct {
	// Engine selects the execution engine; the zero value is
	// sim.EngineVirtual.
	Engine sim.Engine
	// Timeout aborts a realtime-engine run whose processes are stuck
	// waiting; blocked processes observe Aborted() and unwind. Zero means
	// DefaultTimeout. The virtual engine ignores it.
	Timeout time.Duration
	// MaxVirtualTime bounds the virtual clock of an EngineVirtual run: once
	// the next event lies past the bound the run is aborted. Zero means
	// unbounded (quiescence detection and MaxSteps still bound stuck runs).
	MaxVirtualTime time.Duration
	// MaxSteps bounds the number of scheduler events of an EngineVirtual
	// run — the deterministic guard against executions that never converge.
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
	// Workers is the virtual engine's expansion-pool width: how many
	// threads expand each flush window's sends — broadcast fanouts and
	// per-recipient bursts alike — inside one run (sharded timer wheels,
	// vclock.WithShards). It is pure mechanism — the observable
	// run (schedule, trace, steps, Outcome) is bit-identical at every
	// setting; only wall-clock time changes. Zero or negative means
	// runtime.NumCPU(). Small topologies (and protocols without a
	// network) run unsharded regardless. The realtime engine ignores it.
	Workers int
	// Crashes supplies the timed (virtual-instant) part of the failure
	// pattern: at each instant the victim's Killed flag is raised and its
	// inbox closed, so it halts at its next step point. Step-point crashes
	// remain the protocol's own business. Under the realtime engine the
	// instants are approximated on the wall clock. Nil is crash-free.
	Crashes *failures.Schedule
}

// NewNetFunc builds the run's simulated network. driver.Run appends the
// engine-specific options (the virtual engine passes netsim.WithScheduler);
// the protocol supplies everything else (seed, counters, delay policy).
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
// band, so a delay function there wins. The constructed network is also
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
	// Elapsed is the run duration: wall-clock under the realtime engine,
	// virtual-clock (equal to VirtualTime) under the virtual engine, so
	// virtual Results stay bit-reproducible.
	Elapsed time.Duration
	// VirtualTime is the virtual clock at the end of the run; zero under
	// the realtime engine.
	VirtualTime time.Duration
	// Steps is the number of discrete events processed; zero under the
	// realtime engine.
	Steps int64
	// Quiesced reports that the virtual engine aborted the run because no
	// process could ever take another step — the deterministic "blocked
	// forever" verdict.
	Quiesced bool
	// DeadlineExceeded / StepsExceeded report that the virtual engine cut
	// the run short at the MaxVirtualTime / MaxSteps bound. A bounded-out
	// run says nothing about the execution's fate — undecided processes
	// might still have progressed — so these verdicts are kept distinct
	// from Quiesced (genuine blocked-forever) and must never be conflated
	// with it by callers classifying non-decision.
	DeadlineExceeded bool
	StepsExceeded    bool
	// Sched counts the virtual scheduler's internal work (events scheduled,
	// timer-wheel cascades, deepest bucket); zero under the realtime engine.
	// Deterministic: same Config, same counts.
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

// Handle is a process body's view of the engine driving it. Exactly one of
// clock/done is set; killed is always set.
type Handle struct {
	clock  *vclock.Scheduler
	proc   *vclock.Proc // the body's own process (virtual engine)
	done   <-chan struct{}
	killed *atomic.Bool
	start  time.Time // run start (realtime engine), for Now
	inline bool      // the body is a Reactor: it must never suspend
}

// Now returns the run clock: the virtual clock under the virtual engine
// (exact and deterministic), wall time since the run started under the
// realtime one. Protocols use it to timestamp externally visible events —
// e.g. the register run tags every operation's invocation and response
// instants so histories can be checked for linearizability.
func (h *Handle) Now() time.Duration {
	if h.clock != nil {
		return time.Duration(h.clock.Now())
	}
	return time.Since(h.start)
}

// Aborted reports whether the run has been aborted (realtime timeout, or
// virtual quiescence / deadline / step budget): the body should record a
// blocked outcome and unwind promptly.
func (h *Handle) Aborted() bool {
	if h.clock != nil {
		return h.clock.Aborted()
	}
	select {
	case <-h.done:
		return true
	default:
		return false
	}
}

// Killed reports whether a timed crash has struck this process; the body
// must halt (as crashed) at the next step point that observes it.
func (h *Handle) Killed() bool { return h.killed.Load() }

// Done returns the realtime engine's abort channel, for blocking receives
// (netsim.Network.Receive). It is nil under the virtual engine, whose
// receives observe the scheduler's abort instead.
func (h *Handle) Done() <-chan struct{} { return h.done }

// WakeAfter schedules a wake of this process's reactor d from now — the
// handler body's substitute for Sleep: where a coroutine suspends, a
// reactor schedules its future work as an event and returns, then
// observes Now() at the next invocation to see whether its deadline has
// passed. Multiple pending wakes coalesce like message deliveries do (a
// reactor is invoked once per Wake, and a wake of a finished process is
// a no-op), so timers racing a decision are harmless. Virtual engine
// only: reactors exist only there, and a realtime Handle has no clock.
func (h *Handle) WakeAfter(d time.Duration) {
	if h.clock == nil {
		panic("driver: WakeAfter requires the virtual engine")
	}
	if d < 0 {
		d = 0
	}
	// Resolve h.proc at fire time, not capture time: a reactor built by
	// HandlerBody may schedule its first timer before RunHandlers has
	// bound the spawned Proc back onto the Handle.
	h.clock.At(h.clock.Now()+vclock.Time(d), func() { h.proc.Wake() })
}

// Sleep suspends the calling body for d: virtual time under the virtual
// engine (zero wall-clock cost), wall-clock time under the realtime
// engine. It returns false when the run was aborted before the full
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
	if h.clock != nil {
		deadline := h.clock.Now() + vclock.Time(d)
		h.clock.At(deadline, func() { h.proc.Wake() })
		// Message deliveries wake the same coroutine; re-park until the
		// deadline event (or a later one) has advanced the clock far enough.
		for h.clock.Now() < deadline {
			if !h.proc.Park() {
				return false
			}
		}
		return true
	}
	select {
	case <-time.After(d):
		return true
	case <-h.done:
		return false
	}
}

// Run executes n process bodies under the configured engine and returns
// the engine-level outcome. It owns the whole dispatch lifecycle: network
// construction (with engine-specific options), process spawning, timed
// crash installation, abort detection, and network shutdown.
func Run(cfg Config, n int, newNet NewNetFunc, body Body) (Outcome, error) {
	if err := cfg.Crashes.ValidateFor(n); err != nil {
		return Outcome{}, fmt.Errorf("%w: %v", ErrBadCrashes, err)
	}
	switch cfg.Engine {
	case sim.EngineVirtual:
		return runVirtual(cfg, n, newNet, body)
	case sim.EngineRealtime:
		return runRealtime(cfg, n, newNet, body)
	}
	return Outcome{}, fmt.Errorf("%w %d", ErrBadEngine, int(cfg.Engine))
}

// RunHandlers executes n inline handler processes (one Reactor each) under
// the virtual engine and returns the engine-level outcome. It is the
// handler-body twin of Run: the same lifecycle (network construction,
// spawning, timed crashes, abort detection, shutdown) with the scheduler
// invoking each reactor directly instead of rendezvousing with a
// goroutine. Handler bodies exist only under the virtual engine; any other
// cfg.Engine yields ErrBadBody — protocols offering both forms fall back
// to coroutine bodies (Run) for realtime runs.
func RunHandlers(cfg Config, n int, newNet NewNetFunc, mk HandlerBody) (Outcome, error) {
	if cfg.Engine != sim.EngineVirtual {
		return Outcome{}, fmt.Errorf("%w (engine %v)", ErrBadBody, cfg.Engine)
	}
	if err := cfg.Crashes.ValidateFor(n); err != nil {
		return Outcome{}, fmt.Errorf("%w: %v", ErrBadCrashes, err)
	}
	clock := newVirtualClock(cfg, n)
	var nw *netsim.Network
	if newNet != nil {
		var err error
		if nw, err = newNet(netsim.WithScheduler(clock)); err != nil {
			return Outcome{}, err
		}
	}

	killed := make([]atomic.Bool, n)
	for i := 0; i < n; i++ {
		i := i
		h := &Handle{clock: clock, killed: &killed[i], inline: true}
		r := mk(i, h)
		h.proc = clock.SpawnHandler(fmt.Sprintf("p%d", i), func(aborted bool) {
			if r.React(aborted) {
				h.proc.Finish()
				if nw != nil {
					nw.CloseInbox(model.ProcID(i))
				}
			}
		})
		if nw != nil {
			nw.Bind(model.ProcID(i), h.proc)
		}
	}

	installTimedCrashes(clock, cfg, killed, nw)
	out := clock.Run()
	if nw != nil {
		nw.Shutdown()
	}
	return virtualOutcome(out), nil
}

// newVirtualClock builds a run's scheduler from the config's bounds and
// the topology size n, which decides both the default step budget and
// whether the timer wheel shards (vclock.ShardsFor).
func newVirtualClock(cfg Config, n int) *vclock.Scheduler {
	return vclock.New(
		vclock.WithDeadline(vclock.Time(cfg.MaxVirtualTime)),
		vclock.WithMaxSteps(resolveMaxSteps(cfg.MaxSteps, n, cfg.Complexity)),
		vclock.WithShards(vclock.ShardsFor(n), resolveWorkers(cfg.Workers)),
	)
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

// resolveWorkers maps the Config.Workers convention onto the scheduler's:
// zero or negative means one expansion worker per CPU.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.NumCPU()
	}
	return w
}

// installTimedCrashes schedules the timed crash events: at each virtual
// instant, mark the victim killed and close its inbox; the victim halts at
// its next step point. Timed() returns a sorted slice, keeping event
// installation deterministic.
func installTimedCrashes(clock *vclock.Scheduler, cfg Config, killed []atomic.Bool, nw *netsim.Network) {
	for _, tc := range cfg.Crashes.Timed() {
		tc := tc
		clock.At(vclock.Time(tc.At), func() {
			killed[tc.P].Store(true)
			if nw != nil {
				nw.CloseInbox(tc.P)
			}
		})
	}
}

// virtualOutcome packages a finished scheduler run as the engine-level
// Outcome.
func virtualOutcome(out vclock.Outcome) Outcome {
	return Outcome{
		Elapsed:          time.Duration(out.Now),
		VirtualTime:      time.Duration(out.Now),
		Steps:            out.Steps,
		Quiesced:         out.Quiesced,
		DeadlineExceeded: out.DeadlineExceeded,
		StepsExceeded:    out.StepsExceeded,
		Sched:            out.Stats,
	}
}

// runVirtual drives the run on a deterministic discrete-event scheduler:
// same inputs, same Outcome. Blocked runs end at quiescence instead of a
// wall-clock timeout.
func runVirtual(cfg Config, n int, newNet NewNetFunc, body Body) (Outcome, error) {
	clock := newVirtualClock(cfg, n)
	var nw *netsim.Network
	if newNet != nil {
		var err error
		if nw, err = newNet(netsim.WithScheduler(clock)); err != nil {
			return Outcome{}, err
		}
	}

	killed := make([]atomic.Bool, n)
	for i := 0; i < n; i++ {
		i := i
		h := &Handle{clock: clock, killed: &killed[i]}
		h.proc = clock.Spawn(fmt.Sprintf("p%d", i), func() {
			body(i, h)
			if nw != nil {
				nw.CloseInbox(model.ProcID(i))
			}
		})
		if nw != nil {
			nw.Bind(model.ProcID(i), h.proc)
		}
	}

	installTimedCrashes(clock, cfg, killed, nw)
	out := clock.Run()
	if nw != nil {
		nw.Shutdown()
	}
	return virtualOutcome(out), nil
}

// runRealtime is the goroutine-per-process backend: one goroutine per
// body, a wall timer aborting stuck runs, and timed crashes approximated
// at wall-clock instants. Interleavings are decided by the Go scheduler,
// so runs are NOT reproducible; the backend exists as a differential check
// for the deterministic virtual engine.
func runRealtime(cfg Config, n int, newNet NewNetFunc, body Body) (Outcome, error) {
	var nw *netsim.Network
	if newNet != nil {
		var err error
		if nw, err = newNet(); err != nil {
			return Outcome{}, err
		}
	}

	done := make(chan struct{})
	killed := make([]atomic.Bool, n)
	var crashTimers []*time.Timer
	for _, tc := range cfg.Crashes.Timed() {
		tc := tc
		crashTimers = append(crashTimers, time.AfterFunc(tc.At, func() {
			killed[tc.P].Store(true)
			if nw != nil {
				nw.CloseInbox(tc.P)
			}
		}))
	}

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		h := &Handle{done: done, killed: &killed[i], start: start}
		wg.Add(1)
		go func(i int, h *Handle) {
			defer wg.Done()
			body(i, h)
			if nw != nil {
				nw.CloseInbox(model.ProcID(i))
			}
		}(i, h)
	}

	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	timer := time.NewTimer(timeout)
	select {
	case <-finished:
		timer.Stop()
	case <-timer.C:
		close(done) // abort blocked processes; they observe Aborted()
		<-finished
	}
	elapsed := time.Since(start)
	for _, t := range crashTimers {
		t.Stop()
	}
	if nw != nil {
		nw.Shutdown()
	}
	return Outcome{Elapsed: elapsed}, nil
}
