// Package gossip implements round-based epidemic rumor dissemination over
// a sparse overlay digraph (internal/overlay) — the first member of the
// sub-quadratic protocol family: msgs/round is Θ(n·d) against the hybrid
// model's Θ(n²).
//
// The protocol computes the OR of the binary proposals: a process
// proposing 1 starts infected with the rumor; every round, infected
// processes push the rumor to their d overlay successors (push mode),
// susceptible processes ask their successors for it (pull mode — an
// infected recipient answers directly), or both (push&pull, the default).
// After a fixed round budget every live process decides its local bit:
// 1 if the rumor reached it, 0 otherwise. Validity is the OR's: "1" is
// decided only when somebody proposed 1, and a unanimous-0 run decides 0.
//
// Unlike classic gossip analyses (uniform random peer per round), the
// overlay is STATIC, which buys a deterministic guarantee: in push mode
// the rumor crosses every overlay edge out of an infected process each
// round, so after diam(G) rounds every process reachable from an infected
// one holds the rumor (pull is symmetric along the transpose digraph, and
// a de Bruijn / circulant transpose has the same diameter bound). The
// round budget follows from a push-phase analysis of that static overlay
// (budgetRounds): advancing the infection frontier one hop costs at most
// one tick wait plus one message transit — two transits in pull mode
// (request, then answer) — so when the maximum transit is known
// (Config.MaxTransit, derived from the network profile by the Scenario
// layer), DiameterBound·hopRounds ticks plus fixed slack provably
// complete dissemination; a crash schedule doubles the diameter term
// because removing up to Kappa−1 vertices keeps the live subgraph
// strongly connected but can stretch its diameter. With an unknown
// transit bound the legacy conservative budget (4·DiameterBound + 24)
// applies, and the derived budget never exceeds it. With a random-view
// overlay every figure is with-high-probability, not a guarantee.
//
// The implementation is an inline handler reactor (driver.RunHandlers): no
// goroutines — rounds are Handle.WakeAfter timer ticks, inbox drains are
// batched, and every send is a per-recipient Network.Send along an overlay
// edge (never SendAll).
// The protocol registers as "gossip" with the overlay-topology and
// sub-quadratic capability flags.
package gossip

import (
	"errors"
	"fmt"
	"time"

	"allforone/internal/driver"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/overlay"
	"allforone/internal/sim"
)

// Mode selects the dissemination direction.
type Mode int

// The three gossip modes.
const (
	// ModePushPull (the default): infected processes push, susceptible
	// processes pull — the classic O(log n)-phase combination.
	ModePushPull Mode = iota
	// ModePush: only infected processes send.
	ModePush
	// ModePull: only susceptible processes ask; infected ones answer.
	ModePull
)

// String names the mode (the registry's algorithm-variant names).
func (m Mode) String() string {
	switch m {
	case ModePushPull:
		return "pushpull"
	case ModePush:
		return "push"
	case ModePull:
		return "pull"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode resolves an algorithm-variant name; empty means ModePushPull.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "", "pushpull", "push-pull":
		return ModePushPull, nil
	case "push":
		return ModePush, nil
	case "pull":
		return ModePull, nil
	}
	return 0, fmt.Errorf("gossip: unknown mode %q (want push, pull, or pushpull)", name)
}

// DefaultRoundLen is the virtual duration of one gossip round. It
// comfortably exceeds the repository's profile delays (≤ ~400µs transit
// outside healing partitions), so a round's sends normally arrive within
// a couple of rounds; the budget's slack absorbs the rest.
const DefaultRoundLen = 250 * time.Microsecond

// Config describes one gossip dissemination run.
type Config struct {
	// N is the number of processes (required, ≥ 2).
	N int
	// Proposals holds each process's binary input (required, length N);
	// the run computes — and every live process decides — their OR.
	Proposals []model.Value
	// Spec is the overlay digraph to disseminate over (required).
	Spec overlay.Spec
	// Mode selects push, pull, or push&pull (the zero value).
	Mode Mode
	// Setup is the run's seed (network delays, random overlay views), crash
	// pattern, bounds and delay policy. Only timed crash plans are honored —
	// a reactor has no benor-style stage points, so step-point plans are
	// rejected — and MaxSteps 0 derives the sparse default
	// (sim.StepsLinear).
	sim.Setup
	// Rounds caps the round budget: 0 keeps the overlay-derived default
	// (budgetRounds — hop-cost analysis when MaxTransit is known,
	// 4·DiameterBound + 24 otherwise); a positive value lower than the
	// default replaces it (the Bounds.MaxRounds cap semantics — a budget
	// too small for the diameter can break agreement, exactly like
	// aborting any protocol early).
	Rounds int
	// RoundLen is the virtual duration of one round; 0 = DefaultRoundLen.
	RoundLen time.Duration
	// MaxTransit is an upper bound on any single message's transit delay,
	// used to size the round budget (the Scenario layer derives it from
	// the network profile via protocol.TransitBound). Zero means: 0
	// (immediate delivery) when no NetOptions delay policy is installed,
	// otherwise unknown, which keeps the legacy conservative budget.
	MaxTransit time.Duration
}

// ErrBadConfig reports an invalid configuration.
var ErrBadConfig = errors.New("gossip: invalid configuration")

// legacyRounds is the conservative pre-analysis round budget: enough
// ticks for the rumor to cross the graph several times over plus slack
// for crash instants and arbitrary profile delays (heal profiles hold
// messages for ~1ms ≈ 4 rounds). It is used whenever the transit bound
// is unknown, and caps the derived budget otherwise.
func legacyRounds(g *overlay.Graph) int {
	return 4*g.DiameterBound() + 24
}

// budgetRounds derives the round budget by push-phase analysis of the
// static overlay. One frontier hop costs at most a tick wait (the newly
// infected process sends at its next tick) plus the transit of the
// infecting message — two transits in pull mode, where a hop is a pull
// request along the transpose edge plus the rumor answer — so with a
// known transit bound, DiameterBound hops complete dissemination within
// DiameterBound·hopRounds ticks; the fixed slack absorbs the first-tick
// offset and stragglers. A crash schedule doubles the diameter term:
// up to Kappa−1 removals keep the live subgraph strongly connected but
// may stretch surviving paths. An unknown transit bound falls back to
// legacyRounds, which also caps the derived figure.
func budgetRounds(g *overlay.Graph, mode Mode, transit time.Duration, transitKnown bool, roundLen time.Duration, crashed bool) int {
	legacy := legacyRounds(g)
	if !transitKnown || roundLen <= 0 {
		return legacy
	}
	per := transit
	if mode == ModePull {
		per *= 2
	}
	hop := 1 + int((per+roundLen-1)/roundLen)
	diam := g.DiameterBound()
	if crashed {
		diam *= 2
	}
	if b := diam*hop + 12; b < legacy {
		return b
	}
	return legacy
}

// rumorMsg is the infection: a push, or the answer to a pull.
type rumorMsg struct{}

// pullMsg asks the recipient to answer with the rumor if it holds it.
type pullMsg struct{}

// reactor is one process's gossip state machine (driver.Reactor): 64 bytes,
// one cache line, which is all an invocation reads of it. What every process
// of the run shares lives in the run it points to (TestReactorHotLine).
type reactor struct {
	h        *driver.Handle
	run      *run
	tickAt   time.Duration // next tick instant
	id       model.ProcID
	round    int // rounds processed so far
	infected bool
	started  bool
	done     bool
	_        [21]byte
}

// run is what a gossip run's reactors share.
type run struct {
	net      *netsim.Network
	g        *overlay.Graph
	ctr      *metrics.Counters
	procs    []sim.ProcResult // the result slots, by process
	mode     Mode
	rounds   int           // budget R
	roundLen time.Duration // tick period
}

// finish records the outcome and retires the reactor.
func (rx *reactor) finish(st sim.Status, val model.Value) bool {
	res := sim.ProcResult{Status: st, Round: rx.round}
	if st == sim.StatusDecided {
		res.Decision = val
	}
	rx.run.procs[rx.id] = res
	rx.done = true
	return true
}

// React runs one invocation: honor a timed crash, drain deliverable
// messages, then process any due round ticks (send, and decide at budget
// end). Gossip never blocks on messages — the only scheduled future is
// the tick chain, so the run can never quiesce before the budget.
func (rx *reactor) React(aborted bool) bool {
	if rx.done {
		return true
	}
	run := rx.run
	if !rx.started {
		rx.started = true
		rx.tickAt = run.roundLen
		rx.h.WakeAfter(run.roundLen)
	}
	if aborted {
		if rx.h.Killed() {
			return rx.finish(sim.StatusCrashed, model.Bot)
		}
		return rx.finish(sim.StatusBlocked, model.Bot)
	}
	// The crash check comes BEFORE the inbox drain: a victim invoked at or
	// after its crash instant must not answer a stale queued pull — sending
	// rumorMsg from a dead process would violate the crash-stop model.
	if rx.h.Killed() {
		return rx.finish(sim.StatusCrashed, model.Bot)
	}
	for {
		m, ok, _ := run.net.ReceiveNow(rx.id)
		if !ok {
			break
		}
		switch m.Payload.(type) {
		case rumorMsg:
			rx.infected = true
		case pullMsg:
			if rx.infected {
				run.net.BurstSend(rx.id, m.From, rumorMsg{})
			}
		}
	}
	// Process every due tick (a message delivery landing past tickAt may
	// reach here before the tick's own wake; the wake then arrives
	// spurious, which is harmless).
	ticked := false
	for rx.h.Now() >= rx.tickAt {
		ticked = true
		rx.round++
		if rx.round >= run.rounds {
			run.ctr.ObserveRound(int64(rx.round))
			if rx.infected {
				return rx.finish(sim.StatusDecided, model.One)
			}
			return rx.finish(sim.StatusDecided, model.Zero)
		}
		rx.sendRound()
		rx.tickAt += run.roundLen
	}
	if ticked {
		rx.h.WakeAfter(rx.tickAt - rx.h.Now())
	}
	return false
}

// sendRound emits this round's messages along the overlay edges —
// per-recipient sends, never a broadcast. They ride the sharded burst
// path: on a sharded engine every reactor ticking at this instant appends
// into one expansion job, and the delay draws, delivery events, and wheel
// insertions happen when that job's window flushes (netsim/expand.go); on a
// small or unsharded topology BurstSend degrades to a plain Send.
func (rx *reactor) sendRound() {
	run := rx.run
	if rx.infected {
		if run.mode == ModePush || run.mode == ModePushPull {
			for _, s := range run.g.Succ(rx.id) {
				run.net.BurstSend(rx.id, s, rumorMsg{})
			}
		}
		return
	}
	if run.mode == ModePull || run.mode == ModePushPull {
		for _, s := range run.g.Succ(rx.id) {
			run.net.BurstSend(rx.id, s, pullMsg{})
		}
	}
}

// Run executes one gossip dissemination instance and returns per-process
// outcomes.
func Run(cfg Config) (*sim.Result, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("%w: need at least two processes, have %d", ErrBadConfig, cfg.N)
	}
	if len(cfg.Proposals) != cfg.N {
		return nil, fmt.Errorf("%w: %d proposals for %d processes", ErrBadConfig, len(cfg.Proposals), cfg.N)
	}
	for i, v := range cfg.Proposals {
		if !v.IsBinary() {
			return nil, fmt.Errorf("%w: proposal of %v is %v", ErrBadConfig, model.ProcID(i), v)
		}
	}
	switch cfg.Mode {
	case ModePush, ModePull, ModePushPull:
	default:
		return nil, fmt.Errorf("%w: unknown mode %d", ErrBadConfig, int(cfg.Mode))
	}
	if cfg.Crashes.HasStepPoints() {
		return nil, fmt.Errorf("%w: gossip honors only timed crash plans", ErrBadConfig)
	}
	if err := cfg.Crashes.ValidateFor(cfg.N); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	g, err := cfg.Spec.Build(cfg.N, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	roundLen := cfg.RoundLen
	if roundLen <= 0 {
		roundLen = DefaultRoundLen
	}
	// With no delay policy installed every message arrives at once.
	transitKnown := cfg.MaxTransit > 0 || len(cfg.NetOptions) == 0
	rounds := budgetRounds(g, cfg.Mode, cfg.MaxTransit, transitKnown, roundLen, cfg.Crashes.HasTimed())
	if cfg.Rounds > 0 && cfg.Rounds < rounds {
		rounds = cfg.Rounds
	}

	var ctr metrics.Counters
	rn := &run{g: g, ctr: &ctr, procs: make([]sim.ProcResult, cfg.N), mode: cfg.Mode, rounds: rounds, roundLen: roundLen}
	dcfg := driver.Config{
		MaxVirtualTime: cfg.MaxVirtualTime,
		MaxSteps:       cfg.MaxSteps,
		Crashes:        cfg.Crashes,
		Complexity:     sim.StepsLinear,
	}
	newNet := driver.StandardNet(&rn.net, cfg.N, uint64(cfg.Seed)^0x5ab3_02e9_cc41_7d16, &ctr, 0, 0, cfg.NetOptions...)
	// One pooled allocation for all reactor state — at n=100k the
	// per-reactor allocations otherwise dominate setup.
	rxs := make([]reactor, cfg.N)
	out, err := driver.RunHandlers(dcfg, cfg.N, newNet, func(i int, h *driver.Handle) driver.Reactor {
		rxs[i] = reactor{
			h:        h,
			run:      rn,
			id:       model.ProcID(i),
			infected: cfg.Proposals[i] == model.One,
		}
		return &rxs[i]
	})
	if err != nil {
		return nil, err
	}
	return &sim.Result{Procs: rn.procs, Metrics: ctr.Read(), Engine: out}, nil
}
