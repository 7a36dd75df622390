// Package gossip implements round-based epidemic dissemination of the OR
// of binary proposals over a sparse overlay digraph (internal/overlay):
// Θ(n·d) messages per round against the hybrid model's Θ(n²). DESIGN.md §6
// describes the modes, the round budget and the crash handling.
package gossip

import (
	"fmt"
	"time"

	"allforone/internal/driver"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/overlay"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// ProtocolName is the registry name of the gossip disseminator.
const ProtocolName = "gossip"

func init() {
	protocol.MustRegister(protocol.Protocol{Info: protocol.Info{
		Name:        ProtocolName,
		Description: "epidemic OR-dissemination over a sparse overlay digraph (Θ(n·d) msgs/round)",
		Proposals:   protocol.ProposalsBinary,
		Topology:    protocol.TopologyOverlay,
		HasNetwork:  true,
		// The default mode last: the CLI renders the final entry as the
		// "(default)" algorithm (same convention as the hybrid protocol).
		Algorithms: []string{"push", "pull", "pushpull"},
	}, Run: runScenario})
}

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

// roundLen is the virtual duration of one gossip round. It comfortably
// exceeds the repository's profile delays (≤ ~400µs transit outside healing
// partitions), so a round's sends normally arrive within a couple of
// rounds; the budget's slack absorbs the rest.
const roundLen = 250 * time.Microsecond

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
func budgetRounds(g *overlay.Graph, mode Mode, transit time.Duration, transitKnown bool, crashed bool) int {
	legacy := legacyRounds(g)
	if !transitKnown {
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
	net    *netsim.Network
	g      *overlay.Graph
	ctr    *metrics.Counters
	procs  []sim.ProcResult // the result slots, by process
	mode   Mode
	rounds int // budget R
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
		rx.tickAt = roundLen
		rx.h.WakeAfter(roundLen)
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
		rx.tickAt += roundLen
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

// runScenario runs one registry-validated gossip dissemination instance.
// Only timed crash plans are honored (the registry rejects step-point
// plans), and MaxSteps 0 derives the sparse default (sim.StepsLinear). The
// round budget is budgetRounds' for the profile's transit bound
// (protocol.TransitBound): immediate delivery when there is no delay
// policy, unknown — the legacy budget — when the profile has no bound.
// Bounds.MaxRounds below that budget replaces it (a budget too small for
// the diameter can break agreement, exactly like aborting any protocol
// early).
func runScenario(sc protocol.Scenario) (*protocol.Outcome, error) {
	props := sc.Workload.Binary
	n := len(props)
	mode, err := ParseMode(sc.Algorithm)
	if err != nil {
		return nil, err
	}
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
	// TransitBound is 0 for a profile without a bound; with no delay policy
	// installed every message arrives at once.
	transit, _ := protocol.TransitBound(sc.Profile, n)
	transitKnown := transit > 0 || setup.NetOption.IsZero()
	rounds := budgetRounds(g, mode, transit, transitKnown, setup.Crashes.HasTimed())
	if r := sc.Bounds.MaxRounds; r > 0 && r < rounds {
		rounds = r
	}

	var ctr metrics.Counters
	rn := &run{g: g, ctr: &ctr, procs: make([]sim.ProcResult, n), mode: mode, rounds: rounds}
	dcfg := driver.Config{
		MaxVirtualTime: setup.MaxVirtualTime,
		MaxSteps:       setup.MaxSteps,
		Crashes:        setup.Crashes,
		Complexity:     sim.StepsLinear,
	}
	newNet := driver.StandardNet(&rn.net, n, uint64(setup.Seed)^0x5ab3_02e9_cc41_7d16, &ctr, 0, 0, setup.NetOption)
	// One pooled allocation for all reactor state — at n=100k the
	// per-reactor allocations otherwise dominate setup.
	rxs := make([]reactor, n)
	out, err := driver.RunHandlers(dcfg, n, newNet, func(i int, h *driver.Handle) driver.Reactor {
		rxs[i] = reactor{
			h:        h,
			run:      rn,
			id:       model.ProcID(i),
			infected: props[i] == model.One,
		}
		return &rxs[i]
	})
	if err != nil {
		return nil, err
	}
	return protocol.BinaryOutcome(ProtocolName, &sim.Result{Procs: rn.procs, Metrics: ctr.Read(), Engine: out}), nil
}
