package allforone

import (
	"allforone/internal/allconcur"
	"allforone/internal/benor"
	"allforone/internal/core"
	"allforone/internal/failures"
	"allforone/internal/gossip"
	"allforone/internal/harness"
	"allforone/internal/mm"
	"allforone/internal/model"
	"allforone/internal/mpcoin"
	"allforone/internal/multivalued"
	"allforone/internal/overlay"
	"allforone/internal/protocol"
	"allforone/internal/register"
	"allforone/internal/shconsensus"
	"allforone/internal/sim"
	"allforone/internal/smr"
	"allforone/internal/trace"
)

// ---------------------------------------------------------------------------
// The Scenario API — the package's main entry point.
//
// A Scenario declaratively describes one run: which protocol (by registry
// name), on which topology, with which workload, under which faults and
// network profile. Run compiles it onto the registered protocol and
// returns a uniform Outcome.

// Scenario declaratively describes one run; see Run.
type Scenario = protocol.Scenario

// Topology is a scenario's communication structure: a cluster Partition
// (hybrid protocols), a bare process count N (flat protocols), an m&m
// edge list MMEdges, or a sparse Overlay digraph spec (gossip, allconcur).
type Topology = protocol.Topology

// Workload holds a scenario's per-process inputs; only the field matching
// the protocol's ProposalKind is consumed.
type Workload = protocol.Workload

// Bounds caps a scenario run (rounds, instances, virtual-time and step
// budgets).
type Bounds = protocol.Bounds

// Outcome is the uniform result of Run; ProcOutcome is one process's view.
type (
	Outcome     = protocol.Outcome
	ProcOutcome = protocol.ProcOutcome
)

// Protocol is one registered consensus implementation: its ProtocolInfo
// (name, proposal kind, topology kind, capabilities) and its Run adapter.
type (
	Protocol     = protocol.Protocol
	ProtocolInfo = protocol.Info
)

// TopologyKind names the Topology field a protocol runs on
// (ProtocolInfo.Topology).
type TopologyKind = protocol.TopologyKind

// The four topology kinds.
const (
	TopologyFlat      = protocol.TopologyFlat
	TopologyPartition = protocol.TopologyPartition
	TopologyGraph     = protocol.TopologyGraph
	TopologyOverlay   = protocol.TopologyOverlay
)

// ProposalKind classifies the workload a protocol consumes.
type ProposalKind = protocol.ProposalKind

// The four workload shapes.
const (
	ProposalsBinary   = protocol.ProposalsBinary
	ProposalsValues   = protocol.ProposalsValues
	ProposalsCommands = protocol.ProposalsCommands
	ProposalsScripts  = protocol.ProposalsScripts
)

// Registry protocol names. Protocols() lists the full registry.
const (
	ProtocolHybrid      = core.ProtocolName
	ProtocolBenOr       = benor.ProtocolName
	ProtocolMPCoin      = mpcoin.ProtocolName
	ProtocolSharedMem   = shconsensus.ProtocolName
	ProtocolMM          = mm.ProtocolName
	ProtocolMultivalued = multivalued.ProtocolName
	ProtocolSMR         = smr.ProtocolName
	ProtocolRegister    = register.ProtocolName
	ProtocolGossip      = gossip.ProtocolName
	ProtocolAllConcur   = allconcur.ProtocolName
)

// OverlaySpec describes the sparse communication digraph of the overlay
// protocol family (Topology.Overlay): a deterministic d-regular family —
// generalized de Bruijn or circulant — or seeded random peer-sampling
// views, built identically by every process from (spec, n, seed). See
// DESIGN.md §6.
type OverlaySpec = overlay.Spec

// Overlay digraph families (OverlaySpec.Kind).
const (
	// OverlayDeBruijn: the generalized de Bruijn digraph GB(d, n) —
	// logarithmic diameter, vertex connectivity ≥ d−1.
	OverlayDeBruijn = overlay.KindDeBruijn
	// OverlayCirculant: successors i+1 … i+d (mod n) — linear diameter but
	// exact vertex connectivity d, the tightest fault budget per degree.
	OverlayCirculant = overlay.KindCirculant
	// OverlayRandom: a seeded Hamiltonian cycle plus d−1 random extra
	// successors per process — the static stand-in for peer-sampling views.
	OverlayRandom = overlay.KindRandom
)

// DefaultOverlayDegree returns the degree the overlay family defaults to
// at a given process count (≈ log₂(n)/2, the AllConcur paper's working
// range; at least 3 so small topologies keep a useful fault budget).
func DefaultOverlayDegree(n int) int { return overlay.DefaultDegree(n) }

// OverlayKind selects an overlay digraph family (OverlaySpec.Kind).
type OverlayKind = overlay.Kind

// ParseOverlayKind resolves an overlay-family name as accepted by the
// CLIs: debruijn (or db), circulant (or ring), random (or sample).
func ParseOverlayKind(name string) (OverlayKind, error) { return overlay.ParseKind(name) }

// Hybrid algorithm names (Scenario.Algorithm for ProtocolHybrid; empty
// picks AlgoCommonCoin).
const (
	AlgoLocalCoin  = core.AlgoLocalCoin
	AlgoCommonCoin = core.AlgoCommonCoin
)

// Run executes one scenario on the protocol registry. The run is a pure
// function of the Scenario: same value, same Outcome, bit for bit,
// whatever the network profile.
func Run(sc Scenario) (*Outcome, error) { return protocol.Run(sc) }

// Protocols returns the registry metadata of every registered protocol,
// sorted by name.
func Protocols() []ProtocolInfo { return protocol.Infos() }

// LookupProtocol returns the protocol registered under name.
func LookupProtocol(name string) (Protocol, bool) { return protocol.Lookup(name) }

// Sweep runs many independent scenarios on a worker pool and returns
// outcomes in input order — the bulk entry point on top of the
// deterministic engine. Every Outcome must pass Check; the first run that
// errs or breaks a property aborts the sweep. parallelism ≤ 0 uses all
// CPUs.
func Sweep(scs []Scenario, parallelism int) ([]*Outcome, error) {
	return harness.Sweep(scs, parallelism)
}

// NetworkProfile is a composable message-delay policy compiled per
// topology; see the profile constructors below and DESIGN.md §7.
type NetworkProfile = protocol.NetworkProfile

// Network profile constructors.
var (
	// UniformProfile draws every transit time uniformly from [min, max].
	UniformProfile = protocol.Uniform
	// SkewMatrixProfile fixes an explicit (possibly asymmetric) n×n
	// per-link delay matrix — fully deterministic.
	SkewMatrixProfile = protocol.SkewMatrix
	// DistanceSkewProfile delays i→j by base + step·|i−j|.
	DistanceSkewProfile = protocol.DistanceSkew
	// ClusterWANProfile models clusters as datacenters: intra-cluster
	// uniform [0, intraMax], inter-cluster interBase + uniform [0, jitter].
	ClusterWANProfile = protocol.ClusterWAN
	// ClusterWANMatrixProfile is ClusterWANProfile with an asymmetric
	// per-cluster-pair base matrix.
	ClusterWANMatrixProfile = protocol.ClusterWANMatrix
	// HealingPartitionProfile holds messages crossing a cut until the run
	// clock reaches a heal instant, then delivers them.
	HealingPartitionProfile = protocol.HealingPartition
	// ParseProfile resolves a compact CLI spec ("uniform:1ms:5ms",
	// "skew:100us:50us", "wan:200us:5ms:1ms", "heal:2ms:0:500us").
	ParseProfile = protocol.ParseProfile
)

// LogSlotSep separates replicated-log slots inside an smr Outcome's
// Decision string.
const LogSlotSep = protocol.LogSep

// ScriptOp is one scripted register operation of Workload.Scripts.
type ScriptOp = protocol.RegisterOp

// Scripted register operation constructors (Workload.Scripts).
var (
	ScriptWrite = protocol.WriteOp
	ScriptRead  = protocol.ReadOp
)

// Value is a binary consensus value (0 or 1) or Bot (⊥, "no value"),
// which appears only inside the protocol.
type Value = model.Value

// The three protocol values. Proposals and decisions are always Zero or
// One.
const (
	Zero = model.Zero
	One  = model.One
	Bot  = model.Bot
)

// ProcID identifies a process (dense 0-based indexes).
type ProcID = model.ProcID

// ClusterID identifies a cluster (dense 0-based indexes).
type ClusterID = model.ClusterID

// Partition is the cluster decomposition of the process set.
type Partition = model.Partition

// Partition constructors.
var (
	// NewPartition builds a partition from explicit 0-based member lists.
	NewPartition = model.NewPartition
	// ParsePartition builds a partition from a 1-based spec such as
	// "1-3/4-5/6-7".
	ParsePartition = model.Parse
	// Singletons is the m=n decomposition (pure message passing).
	Singletons = model.Singletons
	// SingleCluster is the m=1 decomposition (pure shared memory).
	SingleCluster = model.SingleCluster
	// Blocks splits n processes into m contiguous near-equal clusters.
	Blocks = model.Blocks
	// Fig1Left is the paper's left Figure-1 layout: {p1,p2,p3} {p4,p5} {p6,p7}.
	Fig1Left = model.Fig1Left
	// Fig1Right is the paper's right Figure-1 layout: {p1} {p2..p5} {p6,p7};
	// P[2] is a majority cluster.
	Fig1Right = model.Fig1Right
)

// Result aggregates a binary-consensus run (Outcome.Raw of the binary
// protocols); ProcResult is one process's outcome.
type (
	Result     = sim.Result
	ProcResult = sim.ProcResult
)

// Status classifies process outcomes.
type Status = sim.Status

// Possible process outcomes.
const (
	StatusDecided = sim.StatusDecided
	StatusCrashed = sim.StatusCrashed
	StatusBlocked = sim.StatusBlocked
)

// Failure injection: crash schedules and step points.
type (
	// Schedule is a failure pattern: which processes crash, and where.
	Schedule = failures.Schedule
	// Crash is one process's crash plan.
	Crash = failures.Crash
	// CrashPoint locates a crash: stage of a phase of a round.
	CrashPoint = failures.Point
	// CrashStage enumerates the step points of a phase.
	CrashStage = failures.Stage
)

// Crash stages, in execution order within a phase.
const (
	StageRoundStart            = failures.StageRoundStart
	StageAfterClusterConsensus = failures.StageAfterClusterConsensus
	StageMidBroadcast          = failures.StageMidBroadcast
	StageAfterExchange         = failures.StageAfterExchange
	StageBeforeDecide          = failures.StageBeforeDecide
)

// Failure-pattern constructors.
var (
	// NewSchedule returns an empty (crash-free) schedule over n processes.
	NewSchedule = failures.NewSchedule
	// CrashAllExcept crashes every process at the given point except the
	// listed survivors.
	CrashAllExcept = failures.CrashAllExcept
)

// Trace records structured events of an execution (attach via
// Scenario.Trace); Check verifies the recorded history.
type Trace = trace.Log

// NewTrace returns an empty event log.
func NewTrace() *Trace { return trace.New() }

// Violation is one property a run broke; see Check.
type Violation = protocol.Violation

// Check holds a run's Outcome to everything its protocol promises —
// agreement, validity, a conclusive verdict, the liveness condition, the
// protocol's own invariants (replicated-log prefixes, register
// linearizability, delivered sets) and, over a recorded trace, cluster
// uniformity and crash-stop — and returns what the run broke; nil means
// correct. Sweep holds every run to it.
func Check(sc Scenario, out *Outcome) []Violation { return protocol.Check(sc, out) }

// The m&m model comparator (Aguilera et al., PODC 2018): MMGraph induces
// the memory domains S_i = {p_i} ∪ neighbors(p_i); its EdgeList feeds
// Topology.MMEdges.
type MMGraph = mm.Graph

// m&m graph constructors.
var (
	// NewMMGraph builds a graph from an edge list.
	NewMMGraph = mm.NewGraph
	// Fig2Graph is the appendix's example graph on 5 processes.
	Fig2Graph = mm.Fig2
)

// Native result types behind Outcome.Raw, for callers needing
// protocol-specific detail.
type (
	// MultivaluedResult aggregates a multivalued run (ProtocolMultivalued:
	// the classical reduction from multivalued to binary consensus,
	// instantiated over the hybrid model).
	MultivaluedResult = multivalued.Result
	// RegisterRunResult aggregates a scripted register run
	// (ProtocolRegister: a cluster-aware ABD construction after the
	// paper's reference [16], whose operations terminate whenever clusters
	// with a survivor cover a majority).
	RegisterRunResult = register.Result
	// LogResult aggregates a replicated-log run (ProtocolSMR: a sequence
	// of log slots, each decided by hybrid multivalued consensus).
	LogResult = smr.Result
	// LogReplicaResult is one replica's view.
	LogReplicaResult = smr.ReplicaResult
)

// LogNoOp is the value of a slot won by a replica with no pending command.
const LogNoOp = smr.NoOp

// Experiments.

// ExperimentOptions tunes an experiment run.
type ExperimentOptions = harness.Options

// ExperimentReport is one experiment's rendered table plus keyed findings.
type ExperimentReport = harness.Report

// ExperimentIDs lists the available experiment identifiers (E1…E10, E10D,
// A1); see DESIGN.md for the per-experiment index.
var ExperimentIDs = harness.ExperimentIDs

// RunExperiment executes one of the paper-reproduction experiments.
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentReport, error) {
	return harness.Run(id, opts)
}
