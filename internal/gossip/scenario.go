package gossip

import (
	"time"

	"allforone/internal/protocol"
)

// ProtocolName is the registry name of the gossip disseminator.
const ProtocolName = "gossip"

func init() {
	protocol.MustRegister(protocol.New(protocol.Info{
		Name:         ProtocolName,
		Description:  "epidemic OR-dissemination over a sparse overlay digraph (Θ(n·d) msgs/round)",
		Proposals:    protocol.ProposalsBinary,
		HasNetwork:   true,
		TimedCrashes: true,
		NeedsOverlay: true,
		SubQuadratic: true,
		// The default mode last: the CLI renders the final entry as the
		// "(default)" algorithm (same convention as the hybrid protocol).
		Algorithms: []string{"push", "pull", "pushpull"},
	}, runScenario))
}

func runScenario(sc *protocol.Scenario) (*protocol.Outcome, error) {
	n, err := sc.Topology.Procs()
	if err != nil {
		return nil, err
	}
	setup, err := sc.Setup()
	if err != nil {
		return nil, err
	}
	mode, err := ParseMode(sc.Algorithm)
	if err != nil {
		return nil, err
	}
	// A known transit bound lets Run derive the tightened push-phase round
	// budget; an unknown profile leaves MaxTransit 0 (legacy budget).
	var maxTransit time.Duration
	if t, known := protocol.TransitBound(sc.Profile, n); known {
		maxTransit = t
	}
	res, err := Run(Config{
		Setup:      setup,
		N:          n,
		Proposals:  sc.Workload.Binary,
		Spec:       *sc.Topology.Overlay,
		Mode:       mode,
		Rounds:     sc.Bounds.MaxRounds,
		MaxTransit: maxTransit,
	})
	if err != nil {
		return nil, err
	}
	return protocol.BinaryOutcome(ProtocolName, res), nil
}
