// Package protocol is the public-API backbone of the repository: a
// registry of every consensus protocol implementation, plus the
// declarative Scenario vocabulary they all share.
//
// Each protocol package (the hybrid algorithms of internal/core, the
// message-passing and shared-memory baselines, the m&m comparator, and
// the extension stack) registers itself at init time under a stable name
// with its proposal kind and capability flags. One entry point —
// protocol.Run — validates a Scenario (topology, workload, faults, network
// profile, bounds) against the protocol's Info, runs it on the registered
// adapter and returns a uniform Outcome.
//
// The package deliberately imports only the neutral vocabulary packages
// (model, sim, failures, netsim, trace, metrics), never a protocol
// implementation — the implementations import it, register themselves,
// and the linker wires the registry (see internal/protocols for the
// convenience import that links all of them).
package protocol

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ProposalKind classifies the workload a protocol consumes.
type ProposalKind int

// The four workload shapes.
const (
	// ProposalsBinary: one binary value per process (Workload.Binary).
	ProposalsBinary ProposalKind = iota + 1
	// ProposalsValues: one arbitrary string per process (Workload.Values).
	ProposalsValues
	// ProposalsCommands: a command queue per replica plus a slot count
	// (Workload.Commands, Workload.Slots).
	ProposalsCommands
	// ProposalsScripts: a read/write script per process (Workload.Scripts).
	ProposalsScripts
)

// String names the proposal kind.
func (k ProposalKind) String() string {
	switch k {
	case ProposalsBinary:
		return "binary"
	case ProposalsValues:
		return "values"
	case ProposalsCommands:
		return "commands"
	case ProposalsScripts:
		return "scripts"
	}
	return fmt.Sprintf("ProposalKind(%d)", int(k))
}

// Info describes a registered protocol: its registry name, the workload it
// consumes, and capability flags the Scenario compiler validates against.
type Info struct {
	// Name is the registry key (e.g. "hybrid", "benor", "smr").
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Proposals is the workload shape the protocol consumes.
	Proposals ProposalKind
	// NeedsPartition: the protocol requires Topology.Partition (the hybrid
	// cluster decomposition). Protocols without it take their process count
	// from Topology.N, or from the partition when one is given anyway (so a
	// single scenario can drive hybrid and flat protocols alike).
	NeedsPartition bool
	// NeedsGraph: the protocol consumes Topology.MMEdges (the m&m model).
	NeedsGraph bool
	// NeedsOverlay: the protocol communicates on a sparse overlay digraph
	// and requires Topology.Overlay (validated at build time via
	// overlay.Spec.Validate). Scenarios without one — or whose spec does
	// not fit the process count — are rejected with ErrBadScenario.
	NeedsOverlay bool
	// SubQuadratic: the protocol's event count is O(n·d·rounds), not
	// Θ(n²) per round — the registry-level complexity hint. Adapters of
	// sub-quadratic protocols pass sim.StepsLinear to the driver so the
	// default MaxSteps budget is O(n)-shaped instead of 24·n²
	// (sim.DefaultMaxStepsHint).
	SubQuadratic bool
	// HasNetwork: the protocol exchanges messages, so Scenario.Profile
	// applies. Scenarios with a profile are rejected for network-less
	// protocols.
	HasNetwork bool
	// StageCrashes / TimedCrashes: which flavors of failures.Schedule
	// plans the protocol honors. Scenarios carrying an unsupported flavor
	// are rejected at build time.
	StageCrashes bool
	TimedCrashes bool
	// Traceable: the protocol records Scenario.Trace events.
	Traceable bool
	// OneForAll: every live process decides whenever the clusters holding a
	// live process cover a majority of the processes — the paper's
	// liveness condition, which Check enforces. A flat protocol's clusters
	// are its processes, so for it the condition is a live majority.
	OneForAll bool
	// Algorithms lists selectable algorithm variants (Scenario.Algorithm);
	// empty means the protocol has exactly one.
	Algorithms []string
}

// Protocol is one registered consensus implementation: static metadata
// plus the Scenario adapter, the implementation's only entry point, which
// builds its run from a declarative run description.
type Protocol interface {
	// Info returns the protocol's registry metadata.
	Info() Info
	// Run executes the (already registry-validated) scenario. It takes its
	// own copy, so that a run does not move the caller's to the heap.
	Run(sc Scenario) (*Outcome, error)
}

// RunFunc is the adapter signature protocol packages register.
type RunFunc func(sc Scenario) (*Outcome, error)

// funcProtocol is the standard Protocol implementation: Info + RunFunc.
type funcProtocol struct {
	info Info
	run  RunFunc
}

func (p *funcProtocol) Info() Info                        { return p.info }
func (p *funcProtocol) Run(sc Scenario) (*Outcome, error) { return p.run(sc) }

// New builds a Protocol from metadata and an adapter function.
func New(info Info, run RunFunc) Protocol {
	return &funcProtocol{info: info, run: run}
}

// ErrUnknownProtocol reports a Scenario.Protocol with no registry entry.
var ErrUnknownProtocol = errors.New("protocol: unknown protocol")

var registry = struct {
	mu sync.RWMutex
	m  map[string]Protocol
}{m: make(map[string]Protocol)}

// Register adds a protocol to the registry. Empty names, nil adapters and
// duplicate registrations are rejected.
func Register(p Protocol) error {
	if p == nil {
		return errors.New("protocol: nil protocol")
	}
	name := p.Info().Name
	if name == "" {
		return errors.New("protocol: empty protocol name")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.m[name]; dup {
		return fmt.Errorf("protocol: %q registered twice", name)
	}
	registry.m[name] = p
	return nil
}

// MustRegister is Register for init-time self-registration; it panics on
// error (a duplicate name is a programming bug, not a runtime condition).
func MustRegister(p Protocol) {
	if err := Register(p); err != nil {
		panic(err)
	}
}

// Lookup returns the protocol registered under name.
func Lookup(name string) (Protocol, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	p, ok := registry.m[name]
	return p, ok
}

// Names returns every registered protocol name, sorted.
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]string, 0, len(registry.m))
	for name := range registry.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Protocols returns every registered protocol, sorted by name.
func Protocols() []Protocol {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Protocol, 0, len(registry.m))
	for _, p := range registry.m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Info().Name < out[j].Info().Name })
	return out
}

// Infos returns the metadata of every registered protocol, sorted by name.
func Infos() []Info {
	ps := Protocols()
	out := make([]Info, len(ps))
	for i, p := range ps {
		out[i] = p.Info()
	}
	return out
}

// Run is the single entry point: it looks up the scenario's protocol,
// validates the scenario against the protocol's capabilities, and
// dispatches to the registered adapter.
func Run(sc Scenario) (*Outcome, error) {
	p, ok := Lookup(sc.Protocol)
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %s)",
			ErrUnknownProtocol, sc.Protocol, strings.Join(Names(), ", "))
	}
	if err := sc.validate(p.Info()); err != nil {
		return nil, err
	}
	return p.Run(sc)
}
