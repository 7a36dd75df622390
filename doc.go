// Package allforone is a Go implementation of the consensus algorithms of
//
//	Michel Raynal and Jiannong Cao,
//	"One for All and All for One: Scalable Consensus in a Hybrid
//	Communication Model", ICDCS 2019 (DOI 10.1109/ICDCS.2019.00053).
//
// # The hybrid communication model
//
// n asynchronous crash-prone processes are partitioned into m clusters.
// Inside a cluster, processes share a memory enriched with compare&swap
// (so deterministic wait-free consensus is available cluster-locally);
// across clusters, every pair of processes is connected by a reliable
// asynchronous channel.
//
// The package provides the paper's two randomized binary consensus
// algorithms (Algorithm 2, local coins; Algorithm 3, a common coin), its
// comparators (pure message-passing Ben-Or and common-coin baselines,
// single-object shared-memory consensus, a consensus analog for the m&m
// model of Aguilera et al.), the extension stack built on top
// (multivalued consensus, a cluster-aware atomic register, a replicated
// log), and a sparse-overlay protocol family for the n=10k–100k regime
// (ProtocolGossip, ProtocolAllConcur — see "Sparse overlays" below).
// Both algorithms rest on the msg_exchange pattern ("one for all
// and all for one"): a message received from one member of a cluster
// counts as received from every member, so consensus terminates whenever
// clusters with a surviving member cover a majority of processes — even
// when a majority of processes crash.
//
// # The Scenario API
//
// Every implementation registers itself in a protocol registry under a
// stable name (Protocols() lists it), and one entry point runs them all:
// declare a Scenario — protocol, topology, workload, faults, network
// profile, seed, bounds — and call Run.
//
//	part := allforone.Fig1Right() // n=7: {p1} {p2..p5} {p6,p7}
//	out, err := allforone.Run(allforone.Scenario{
//		Protocol: allforone.ProtocolHybrid,
//		Topology: allforone.Topology{Partition: part},
//		Workload: allforone.Workload{Binary: []allforone.Value{1, 0, 0, 0, 0, 1, 1}},
//		Seed:     42,
//	})
//	if err != nil { ... }
//	v, decided, _ := out.Decided()
//
// Because the description is declarative, one scenario value drives any
// registered protocol: switch Protocol from "hybrid" to "benor" and the
// identical topology, workload, faults and delays now exercise pure
// message passing — which is how the registry-driven differential test
// and the cross-protocol experiments work.
//
// # Network profiles
//
// Scenario.Profile composes the message-delay policy: UniformProfile
// (uniform bands), SkewMatrixProfile / DistanceSkewProfile (per-link,
// possibly asymmetric, fully deterministic skew), ClusterWANProfile
// (datacenter clusters over an asymmetric WAN), and
// HealingPartitionProfile (a network cut that heals at a chosen instant,
// with held messages delivered afterwards — reliable channels, arbitrary
// but finite transit). Profiles compile onto the simulated network per
// topology; every profile is deterministic.
//
// # Sparse overlays
//
// The protocols above broadcast — Θ(n²) messages per round — which caps
// practical population sizes. ProtocolGossip (push/pull/push-pull rumor
// dissemination) and ProtocolAllConcur (leaderless single-round atomic
// broadcast with early-termination failure tracking) instead send only
// to a constant number of successors on a deterministic overlay digraph,
// costing Θ(n·d) per round. Declare the overlay in the topology:
//
//	out, err := allforone.Run(allforone.Scenario{
//		Protocol: allforone.ProtocolGossip,
//		Topology: allforone.Topology{
//			N:       10_000,
//			Overlay: &allforone.OverlaySpec{Kind: allforone.OverlayDeBruijn, Degree: allforone.DefaultOverlayDegree(10_000)},
//		},
//		Workload: workload, // binary rumor bits (gossip) or per-process values (allconcur)
//	})
//
// Overlay families: OverlayDeBruijn (logarithmic diameter),
// OverlayCirculant (vertex connectivity exactly Degree — survives any
// Degree−1 crashes), OverlayRandom (seeded d-regular peer sampling).
// Both protocols validate the spec at build time (DESIGN.md §13).
//
// # Execution engine
//
// Every run executes on one engine: a deterministic discrete-event
// simulation (internal/vclock). Message transit advances a virtual clock
// instead of sleeping; processes are cooperatively stepped; the whole run
// is a pure function of the Scenario, so the same Seed replays the same
// execution bit for bit — same Outcome, same trace. Blocked runs (liveness
// condition violated) are detected deterministically by quiescence,
// bounded further by Bounds.MaxVirtualTime and Bounds.MaxSteps; no
// wall-clock time is ever spent. The asynchronous model quantifies over
// all schedules; the engine samples that space replayably (seed × network
// profile × the adversarial search of internal/adversary). Because runs
// never sleep, sweeps of thousands of seeded scenarios parallelize across
// cores (Sweep).
//
// The experiment harness regenerating every figure and quantitative claim
// of the paper runs on the same registry (see EXPERIMENTS.md and
// DESIGN.md §8 for the Scenario/registry/NetworkProfile contract).
package allforone
