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
// (ProtocolGossip, ProtocolAllConcur; see below).
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
// # Network profiles and sparse overlays
//
// Scenario.Profile sets the message-delay policy: UniformProfile,
// SkewMatrixProfile, DistanceSkewProfile, ClusterWANProfile or
// HealingPartitionProfile, each deterministic. ProtocolGossip and
// ProtocolAllConcur send only to their successors on an overlay digraph
// declared in the topology, Θ(n·d) messages per round instead of Θ(n²):
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
// # Execution
//
// Every run executes on one deterministic discrete-event engine under one
// execution token: message transit advances a virtual clock, a run is a
// pure function of its Scenario (the same Seed replays the same Outcome bit
// for bit), and a run whose liveness condition fails ends at quiescence, in
// no wall-clock time. Check judges any Outcome against what its protocol
// promises, and Sweep runs many Scenarios in parallel. DESIGN.md describes
// the design layer by layer (the Scenario API and Check in DESIGN.md §7),
// and EXPERIMENTS.md the tables that reproduce the paper.
package allforone
