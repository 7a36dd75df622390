package protocol

import (
	"errors"
	"fmt"
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/overlay"
	"allforone/internal/sim"
	"allforone/internal/trace"
)

// Scenario is a declarative run description shared by every registered
// protocol: WHAT to run (protocol + workload) on WHICH topology, under
// WHICH adversary (faults + network profile), driven HOW (seed, bounds).
// protocol.Run validates it once and hands it to the chosen protocol's
// adapter, which builds its machine from it; the shared part — seed,
// faults, bounds, delay policy — is the one record Setup builds.
//
// A single Scenario value may carry every workload shape at once
// (Binary + Values + Commands + Scripts); each protocol consumes only the
// shape its Info declares — which is what lets a differential harness run
// one scenario matrix across the whole registry by switching Protocol.
type Scenario struct {
	// Protocol names the registry entry to run (see Names()).
	Protocol string
	// Topology is the communication structure: a cluster partition for
	// hybrid protocols, a bare process count for flat ones, an m&m graph
	// for the comparator.
	Topology Topology
	// Workload holds the per-process inputs (see ProposalKind).
	Workload Workload
	// Faults is the crash pattern; nil means crash-free. It must cover
	// exactly the topology's processes — schedules referencing processes
	// the run does not have are rejected at build time.
	Faults *failures.Schedule
	// Profile is the message-delay policy; nil means immediate delivery.
	// Profiles compile down to deterministic netsim delay policies.
	Profile NetworkProfile
	// Seed pins all randomness of the run.
	Seed int64
	// Workers is ignored.
	//
	// Deprecated: a run expands its sends on the execution token alone, so
	// there is no width to set. The field remains so that existing callers
	// compile.
	Workers int
	// Algorithm selects a variant for protocols offering several (see
	// Info.Algorithms); empty picks the protocol's default.
	Algorithm string
	// Bounds caps the run (rounds, virtual time, scheduler steps).
	Bounds Bounds
	// Trace, when non-nil, records structured events (Traceable protocols
	// only).
	Trace *trace.Log
}

// Topology is the communication structure of a scenario.
type Topology struct {
	// Partition is the hybrid model's cluster decomposition. When set, it
	// also fixes the process count for flat protocols.
	Partition *model.Partition
	// N is the process count for protocols that need no partition; ignored
	// (but validated for consistency) when Partition is set.
	N int
	// MMEdges is the undirected edge list inducing the m&m model's memory
	// domains (0-based endpoints); consumed by TopologyGraph protocols.
	MMEdges [][2]int
	// Overlay is the sparse communication digraph spec consumed by
	// TopologyOverlay protocols (gossip, allconcur): a deterministic
	// d-regular family (de Bruijn, circulant) or seeded random
	// peer-sampling views, built identically by every process from
	// (spec, n, seed). Required — and validated at build time — when the
	// protocol declares TopologyOverlay; ignored otherwise (like MMEdges).
	Overlay *overlay.Spec
}

// Procs resolves the topology's process count: the partition's when one is
// set (cross-checked against N if both are given), N otherwise.
func (t Topology) Procs() (int, error) {
	if t.Partition != nil {
		n := t.Partition.N()
		if t.N != 0 && t.N != n {
			return 0, fmt.Errorf("%w: Topology.N = %d but the partition has %d processes", ErrBadScenario, t.N, n)
		}
		return n, nil
	}
	if t.N <= 0 {
		return 0, fmt.Errorf("%w: topology needs a partition or a positive N", ErrBadScenario)
	}
	return t.N, nil
}

// Workload is the per-process input of a scenario. Only the field matching
// the protocol's ProposalKind is consumed; the others may stay empty (or
// carry inputs for other protocols sharing the scenario).
type Workload struct {
	// Binary holds one binary proposal per process.
	Binary []model.Value
	// Values holds one arbitrary string proposal per process.
	Values []string
	// Commands holds one command queue per replica; Slots is the log
	// length to agree on.
	Commands [][]string
	Slots    int
	// Scripts holds one read/write script per process.
	Scripts [][]RegisterOp
}

// RegisterOp is one scripted register operation of Workload.Scripts.
type RegisterOp struct {
	// Write selects a write of Val; false means a read.
	Write bool
	// Val is the value to write (writes only).
	Val string
	// After delays the start of the operation relative to the end of the
	// previous one (virtual time).
	After time.Duration
}

// WriteOp returns a scripted write.
func WriteOp(val string) RegisterOp { return RegisterOp{Write: true, Val: val} }

// ReadOp returns a scripted read.
func ReadOp() RegisterOp { return RegisterOp{} }

// Bounds caps a scenario run. The zero value keeps every protocol's
// defaults (unbounded rounds, the topology-derived step budget). Negative
// MaxRounds, MaxInstances and MaxVirtualTime are rejected.
type Bounds struct {
	// MaxRounds bounds the rounds of each binary consensus execution
	// (per instance, for the multivalued/smr reductions); 0 = unbounded.
	MaxRounds int
	// MaxInstances bounds the binary instances of the multivalued
	// reduction (per slot, for smr); 0 = the protocol default.
	MaxInstances int
	// MaxVirtualTime bounds the virtual clock; 0 = unbounded.
	MaxVirtualTime time.Duration
	// MaxSteps bounds the scheduler's event count; 0 = the default,
	// negative = unbounded.
	MaxSteps int64
}

// ErrBadScenario reports an invalid scenario.
var ErrBadScenario = errors.New("protocol: invalid scenario")

// validate checks the scenario against a protocol's declared capabilities
// and the workload against the topology, so an adapter runs only scenarios
// it can compile. Checks that belong to one protocol (an m&m graph or an
// overlay that fails to build) stay in its adapter and wrap ErrBadScenario
// too.
func (sc *Scenario) validate(info Info) error {
	switch {
	case info.Topology == TopologyPartition && sc.Topology.Partition == nil:
		return fmt.Errorf("%w: protocol %q needs Topology.Partition", ErrBadScenario, info.Name)
	case info.Topology == TopologyGraph && len(sc.Topology.MMEdges) == 0:
		return fmt.Errorf("%w: protocol %q needs Topology.MMEdges (an edgeless graph is a degenerate topology)", ErrBadScenario, info.Name)
	}
	n, err := sc.Topology.Procs()
	if err != nil {
		return fmt.Errorf("protocol %q: %w", info.Name, err)
	}
	if info.Topology == TopologyOverlay {
		if sc.Topology.Overlay == nil {
			return fmt.Errorf("%w: protocol %q needs Topology.Overlay (a sparse digraph spec — overlay.Spec)", ErrBadScenario, info.Name)
		}
		if err := sc.Topology.Overlay.Validate(n); err != nil {
			return fmt.Errorf("%w: protocol %q: %v", ErrBadScenario, info.Name, err)
		}
	}
	if b := sc.Bounds; b.MaxRounds < 0 || b.MaxInstances < 0 || b.MaxVirtualTime < 0 {
		return fmt.Errorf("%w: negative bound (MaxRounds %d, MaxInstances %d, MaxVirtualTime %v)", ErrBadScenario, b.MaxRounds, b.MaxInstances, b.MaxVirtualTime)
	}
	if err := sc.Workload.validate(info.Proposals, n); err != nil {
		return fmt.Errorf("protocol %q: %w", info.Name, err)
	}
	if err := sc.Faults.ValidateFor(n); err != nil {
		return fmt.Errorf("%w: %v", ErrBadScenario, err)
	}
	if !info.StageCrashes && sc.Faults.HasStepPoints() {
		return fmt.Errorf("%w: protocol %q does not honor step-point crash plans (use Schedule.SetTimed)", ErrBadScenario, info.Name)
	}
	if !info.HasNetwork && sc.Profile != nil {
		return fmt.Errorf("%w: protocol %q has no message network; drop the Profile", ErrBadScenario, info.Name)
	}
	if sc.Algorithm != "" {
		found := false
		for _, a := range info.Algorithms {
			if a == sc.Algorithm {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%w: protocol %q has no algorithm %q (available: %v)", ErrBadScenario, info.Name, sc.Algorithm, info.Algorithms)
		}
	}
	if !info.Traceable && sc.Trace != nil {
		return fmt.Errorf("%w: protocol %q does not record traces", ErrBadScenario, info.Name)
	}
	return nil
}

// validate checks the field that kind names: one entry per process, binary
// proposals 0 or 1, at least one log slot, no negative script delay.
func (w *Workload) validate(kind ProposalKind, n int) error {
	count, field := 0, ""
	switch kind {
	case ProposalsBinary:
		count, field = len(w.Binary), "binary proposals"
		for i, v := range w.Binary {
			if !v.IsBinary() {
				return fmt.Errorf("%w: proposal of %v is %v, want 0 or 1", ErrBadScenario, model.ProcID(i), v)
			}
		}
	case ProposalsValues:
		count, field = len(w.Values), "value proposals"
	case ProposalsCommands:
		count, field = len(w.Commands), "command queues"
		if w.Slots < 1 {
			return fmt.Errorf("%w: %d log slots, want at least one", ErrBadScenario, w.Slots)
		}
	case ProposalsScripts:
		count, field = len(w.Scripts), "scripts"
		for i, script := range w.Scripts {
			for j, op := range script {
				if op.After < 0 {
					return fmt.Errorf("%w: script %d op %d has negative After", ErrBadScenario, i, j)
				}
			}
		}
	}
	if count != n {
		return fmt.Errorf("%w: %d %s for %d processes", ErrBadScenario, count, field, n)
	}
	return nil
}

// Setup compiles the scenario's seed, faults, bounds and network profile
// into the one run record (sim.Setup) every adapter builds its run from.
// Adapters call it once, on a scenario the registry has validated.
func (sc *Scenario) Setup() (sim.Setup, error) {
	s := sim.Setup{
		Seed:           sc.Seed,
		Crashes:        sc.Faults,
		MaxVirtualTime: sc.Bounds.MaxVirtualTime,
		MaxSteps:       sc.Bounds.MaxSteps,
	}
	if sc.Profile == nil {
		return s, nil
	}
	n, err := sc.Topology.Procs()
	if err != nil {
		return sim.Setup{}, err
	}
	opt, err := sc.Profile.Compile(n, sc.Topology.Partition)
	if err != nil {
		// Both sentinels stay inspectable: ErrBadScenario for the scenario
		// layer, plus whatever the profile wrapped (e.g. netsim.ErrBadMatrix
		// for a non-square or negative skew matrix).
		return sim.Setup{}, fmt.Errorf("%w: profile %q: %w", ErrBadScenario, sc.Profile.ProfileName(), err)
	}
	s.NetOption = opt
	return s, nil
}
