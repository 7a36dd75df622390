package register

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"allforone/internal/model"
)

// This file is the register's deterministic linearizability checker: a
// small Wing&Gong-style search over the timestamped operation histories
// that register.Run records. With the engine tagging every operation's
// invocation and response instants, atomicity is checked as a pure
// function of the run's Config.

// HistOp is one operation of a register history: who invoked it, what it
// did, and its invocation/response window on the run clock.
type HistOp struct {
	Proc model.ProcID
	Kind OpKind
	// Val is the value written (OpWrite) or returned (OpRead).
	Val string
	// Start is the invocation instant; End the response instant. For
	// operations that never completed (OK=false) the window is treated as
	// open-ended — End is ignored.
	Start, End time.Duration
	// OK reports whether the operation returned to its caller. A failed
	// write MAY have taken effect (the classic ABD partial-update
	// ambiguity): the checker linearizes it anywhere after Start, or not
	// at all.
	OK bool
}

// String renders the op, e.g. "p3: write(v1) [10µs,30µs]".
func (op HistOp) String() string {
	arg := op.Val
	if op.Kind == OpRead {
		arg = "→" + op.Val
	}
	status := ""
	if !op.OK {
		status = " (failed)"
	}
	return fmt.Sprintf("%v: %v(%s) [%v,%v]%s", op.Proc, op.Kind, arg, op.Start, op.End, status)
}

// History flattens a scripted run into a checkable operation history:
// every write (failed writes included — they may have partially taken
// effect) plus every completed read, sorted by invocation instant. Failed
// reads are dropped: they returned nothing and wrote nothing, so they
// constrain nothing.
func (r *Result) History() []HistOp {
	var out []HistOp
	for p, pr := range r.Procs {
		for _, op := range pr.Ops {
			if op.Kind == OpRead && !op.OK {
				continue
			}
			out = append(out, HistOp{
				Proc:  model.ProcID(p),
				Kind:  op.Kind,
				Val:   op.Val,
				Start: op.Start,
				End:   op.End,
				OK:    op.OK,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].Proc < out[j].Proc
	})
	return out
}

// CheckLinearizable reports whether the scripted run's history is
// linearizable with respect to a single atomic register initialized to
// the empty string. See CheckLinearizable for the semantics.
func (r *Result) CheckLinearizable() error {
	return CheckLinearizable(r.History())
}

// ErrNotLinearizable reports a history no sequential register execution
// can explain.
type ErrNotLinearizable struct {
	// History is the offending history, in invocation order.
	History []HistOp
}

func (e *ErrNotLinearizable) Error() string {
	var b strings.Builder
	b.WriteString("register: history is not linearizable:")
	for _, op := range e.History {
		b.WriteString("\n  ")
		b.WriteString(op.String())
	}
	return b.String()
}

// maxHistoryOps bounds the checker's bitmask state. Linearizability
// checking is NP-complete in general; 63 operations is far beyond any
// scripted test's size while keeping the memoized search exact.
const maxHistoryOps = 63

// CheckLinearizable decides whether the history is linearizable with
// respect to a single atomic register whose initial value is the empty
// string: is there a total order of the operations, consistent with their
// real-time windows (an operation whose response precedes another's
// invocation must come first), in which every read returns the most
// recently written value?
//
// Failed operations carry the usual ambiguity: a failed write may be
// linearized at any point after its invocation, or never (it counts as
// having no effect); failed reads must not appear in the history (History
// drops them). The search is the Wing&Gong backtracking algorithm with
// memoization on (linearized set, register value) — exact, and fast for
// the history sizes scripted runs produce.
func CheckLinearizable(ops []HistOp) error {
	if len(ops) > maxHistoryOps {
		return fmt.Errorf("register: history has %d operations, checker supports at most %d", len(ops), maxHistoryOps)
	}
	for i, op := range ops {
		if op.Kind != OpWrite && op.Kind != OpRead {
			return fmt.Errorf("register: history op %d has kind %d", i, int(op.Kind))
		}
		if op.Kind == OpRead && !op.OK {
			return fmt.Errorf("register: history op %d is a failed read; drop it (it constrains nothing)", i)
		}
	}
	// need is the set of operations every linearization must contain:
	// completed ones. Failed writes are optional.
	var need uint64
	for i, op := range ops {
		if op.OK {
			need |= 1 << uint(i)
		}
	}
	visited := make(map[memoKey]bool)
	if linearize(ops, 0, need, "", visited) {
		return nil
	}
	return &ErrNotLinearizable{History: append([]HistOp(nil), ops...)}
}

// memoKey identifies a search state: which operations are already
// linearized and what the register holds.
type memoKey struct {
	done uint64
	val  string
}

// linearize tries to extend a partial linearization. done is the set of
// already-linearized operations, val the register's current value.
func linearize(ops []HistOp, done, need uint64, val string, visited map[memoKey]bool) bool {
	if done&need == need {
		// Every completed operation is placed; pending failed writes are
		// legitimately "never took effect".
		return true
	}
	key := memoKey{done: done, val: val}
	if visited[key] {
		return false
	}
	for i, op := range ops {
		bit := uint64(1) << uint(i)
		if done&bit != 0 {
			continue
		}
		// Real-time order: op may only go next if no pending completed
		// operation responded before op was invoked.
		blocked := false
		for j, prior := range ops {
			if jbit := uint64(1) << uint(j); j == i || done&jbit != 0 || !prior.OK {
				continue
			}
			if prior.End < op.Start {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		switch op.Kind {
		case OpWrite:
			if linearize(ops, done|bit, need, op.Val, visited) {
				return true
			}
		case OpRead:
			if op.Val == val && linearize(ops, done|bit, need, val, visited) {
				return true
			}
		}
	}
	visited[key] = true
	return false
}
