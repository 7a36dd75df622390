// Package protocol is the public-API backbone of the repository: a
// registry of every consensus protocol implementation, plus the
// declarative Scenario vocabulary they all share.
//
// Each protocol package (the hybrid algorithms of internal/core, the
// message-passing and shared-memory baselines, the m&m comparator, and
// the extension stack) registers itself at init time under a stable name
// with its proposal kind, topology kind and capabilities. One entry point —
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

// TopologyKind names the Topology field a protocol runs on.
type TopologyKind int

// The four topology kinds.
const (
	// TopologyFlat: a bare process count, Topology.N — or the partition's,
	// when one is given anyway, so that a single scenario can drive hybrid
	// and flat protocols alike.
	TopologyFlat TopologyKind = iota
	// TopologyPartition: Topology.Partition, the hybrid cluster
	// decomposition.
	TopologyPartition
	// TopologyGraph: Topology.MMEdges, the m&m model's graph.
	TopologyGraph
	// TopologyOverlay: Topology.Overlay, a sparse overlay digraph spec,
	// validated against the process count (overlay.Spec.Validate).
	TopologyOverlay
)

// String names the topology kind.
func (k TopologyKind) String() string {
	switch k {
	case TopologyFlat:
		return "flat"
	case TopologyPartition:
		return "partition"
	case TopologyGraph:
		return "graph"
	case TopologyOverlay:
		return "overlay"
	}
	return fmt.Sprintf("TopologyKind(%d)", int(k))
}

// Info describes a registered protocol: its registry name, the workload it
// consumes, and the capabilities the Scenario compiler validates against.
type Info struct {
	// Name is the registry key (e.g. "hybrid", "benor", "smr").
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Proposals is the workload shape the protocol consumes.
	Proposals ProposalKind
	// Topology is the Topology field the protocol runs on; a scenario
	// without it, or (for an overlay) whose spec does not fit the process
	// count, is rejected with ErrBadScenario.
	Topology TopologyKind
	// HasNetwork: the protocol exchanges messages, so Scenario.Profile
	// applies. Scenarios with a profile are rejected for network-less
	// protocols.
	HasNetwork bool
	// StageCrashes: the protocol honors step-point crash plans as well as
	// timed ones, which every protocol honors. Scenarios carrying step
	// plans for a protocol without it are rejected.
	StageCrashes bool
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

// Protocol is one registered consensus implementation: its registry
// metadata and its Scenario adapter.
type Protocol struct {
	Info
	// Run executes a registry-validated scenario: the implementation's only
	// entry point, which builds its run from a declarative run description.
	// It takes its own copy, so that a run does not move the caller's to
	// the heap.
	Run func(sc Scenario) (*Outcome, error)
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
	switch {
	case p.Name == "":
		return errors.New("protocol: empty protocol name")
	case p.Run == nil:
		return fmt.Errorf("protocol: %q has no Run", p.Name)
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.m[p.Name]; dup {
		return fmt.Errorf("protocol: %q registered twice", p.Name)
	}
	registry.m[p.Name] = p
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

// Infos returns the metadata of every registered protocol, sorted by name.
func Infos() []Info {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Info, 0, len(registry.m))
	for _, p := range registry.m {
		out = append(out, p.Info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
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
	if err := sc.validate(p.Info); err != nil {
		return nil, err
	}
	return p.Run(sc)
}
