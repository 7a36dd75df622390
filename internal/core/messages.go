// Package core implements the paper's contribution: binary randomized
// consensus in the hybrid communication model (Raynal & Cao, ICDCS 2019).
//
//   - Algorithm 1, the msg_exchange all-to-all communication pattern with
//     cluster-closure accounting ("one for all and all for one");
//   - Algorithm 2, local-coin consensus — a hybrid-model extension of
//     Ben-Or's randomized consensus (PODC 1983);
//   - Algorithm 3, common-coin consensus — a hybrid-model extension of the
//     crash-fault version of the Friedman–Mostéfaoui–Raynal algorithm.
//
// Each simulated process runs on internal/driver, whose one execution
// token steps every process body, against the substrates in
// internal/consensusobj (the cluster memory's CONS_x[r,ph] objects),
// internal/netsim (reliable asynchronous channels) and internal/coin.
// Crash failures are injected at the step points defined in
// internal/failures.
package core

import (
	"fmt"

	"allforone/internal/model"
)

// PhaseMsg is the (r, ph, est) triple broadcast by Algorithm 1 line 3.
// For Algorithm 3, which has single-phase rounds, Phase is always 1.
type PhaseMsg struct {
	Round int
	Phase int
	Est   model.Value
}

// String renders the message as the paper writes it.
func (m PhaseMsg) String() string {
	return fmt.Sprintf("PHASE(%d,%d,%v)", m.Round, m.Phase, m.Est)
}

// DecideMsg is the DECIDE(v) message of Algorithm 2 lines 12/17 and
// Algorithm 3 lines 9/13: broadcast before deciding so that processes
// blocked in a later round cannot deadlock waiting for messages from
// processes that already returned.
type DecideMsg struct {
	Val model.Value
}

// String renders the message as the paper writes it.
func (m DecideMsg) String() string { return fmt.Sprintf("DECIDE(%v)", m.Val) }

// phaseKey orders protocol positions lexicographically (round, then phase).
type phaseKey struct {
	round int
	phase int
}

// less reports whether k precedes other in protocol order.
func (k phaseKey) less(other phaseKey) bool {
	if k.round != other.round {
		return k.round < other.round
	}
	return k.phase < other.phase
}

// bufferedMsg is a phase message retained for a protocol position the
// receiving process has not reached yet.
type bufferedMsg struct {
	from model.ProcID
	est  model.Value
}
