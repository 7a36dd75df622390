// Package trace records structured events of a consensus execution and
// checks model invariants over the recorded history.
//
// The key check is cluster uniformity, the premise of the one-for-all
// property (paper §III-A): at the same phase of the same round, no two
// processes of one cluster may broadcast different estimates — the
// intra-cluster consensus objects guarantee it, and the checker verifies
// the guarantee held in a concrete run.
package trace

import (
	"fmt"
	"sync"

	"allforone/internal/model"
)

// Kind classifies an event.
type Kind int

// Event kinds, in rough execution order.
const (
	KindPropose Kind = iota + 1 // process entered propose(v)
	KindRoundStart
	KindClusterAgree // CONS_x[r,ph] returned v to the process
	KindBroadcast    // process broadcast (r, ph, v)
	KindExchangeExit // msg_exchange returned
	KindCoinFlip     // local or common coin consulted
	KindDecide       // process returned v
	KindCrash        // process halted by failure injection
	KindBlocked      // process aborted by the runner (timeout/round cap)
)

// String returns a compact kind name.
func (k Kind) String() string {
	switch k {
	case KindPropose:
		return "propose"
	case KindRoundStart:
		return "round-start"
	case KindClusterAgree:
		return "cluster-agree"
	case KindBroadcast:
		return "broadcast"
	case KindExchangeExit:
		return "exchange-exit"
	case KindCoinFlip:
		return "coin"
	case KindDecide:
		return "decide"
	case KindCrash:
		return "crash"
	case KindBlocked:
		return "blocked"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one recorded step.
type Event struct {
	Seq   int64 // global append order
	P     model.ProcID
	Kind  Kind
	Round int
	Phase int
	Value model.Value
}

// String renders the event for debugging output.
func (e Event) String() string {
	return fmt.Sprintf("#%d %v %s r%d/ph%d v=%v", e.Seq, e.P, e.Kind, e.Round, e.Phase, e.Value)
}

// Log is an append-only event log. A nil *Log discards all appends, so
// algorithms can trace unconditionally and runs pay nothing when tracing is
// off. Append is safe for concurrent use.
type Log struct {
	mu     sync.Mutex
	events []Event
	next   int64
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Append records an event. Appending to a nil log is a no-op.
func (l *Log) Append(p model.ProcID, kind Kind, round, phase int, v model.Value) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, Event{
		Seq: l.next, P: p, Kind: kind, Round: round, Phase: phase, Value: v,
	})
	l.next++
}

// Events returns a copy of the recorded history in append order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// CheckClusterUniformity verifies that within every (cluster, round, phase),
// all broadcast events carry the same value — the invariant enforced by the
// intra-cluster consensus objects that justifies the one-for-all message
// accounting. It returns an error naming the first violation.
func CheckClusterUniformity(l *Log, part *model.Partition) error {
	type key struct {
		cluster model.ClusterID
		round   int
		phase   int
	}
	first := make(map[key]Event)
	for _, e := range l.Events() {
		if e.Kind != KindBroadcast {
			continue
		}
		k := key{part.ClusterOf(e.P), e.Round, e.Phase}
		if prev, ok := first[k]; ok {
			if prev.Value != e.Value {
				return fmt.Errorf(
					"trace: cluster uniformity violated in %v at r%d/ph%d: %v broadcast %v but %v broadcast %v",
					k.cluster, e.Round, e.Phase, prev.P, prev.Value, e.P, e.Value)
			}
			continue
		}
		first[k] = e
	}
	return nil
}
