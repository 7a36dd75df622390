package register

import (
	"errors"
	"fmt"
	"time"

	"allforone/internal/driver"
	"allforone/internal/failures"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/sim"
	"allforone/internal/vclock"
)

// This file is the register's closed-run entry point on the engine driver
// (internal/driver): each process executes a scripted sequence of
// read/write operations while serving its cluster's share of the ABD
// protocol. A run is a pure function of its Config — same seed, same
// Result, bit for bit — and an operation that can never reach a qualifying
// majority ends as blocked at quiescence.

// OpKind selects a register operation.
type OpKind int

// The two register operations.
const (
	OpWrite OpKind = iota + 1
	OpRead
)

// String names the operation kind.
func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one scripted register operation.
type Op struct {
	// Kind is OpWrite or OpRead.
	Kind OpKind
	// Val is the value to write (OpWrite only).
	Val string
	// After delays the start of the operation relative to the end of the
	// previous one, in virtual time (free). It is how scripts order
	// operations across processes (e.g. "read after the others crashed").
	After time.Duration
}

// WriteOp returns a write operation.
func WriteOp(val string) Op { return Op{Kind: OpWrite, Val: val} }

// ReadOp returns a read operation.
func ReadOp() Op { return Op{Kind: OpRead} }

// OpResult is the outcome of one scripted operation.
type OpResult struct {
	Kind OpKind
	// Val is the value read (OpRead) or written (OpWrite).
	Val string
	// OK reports whether the operation completed. Operations after the
	// first failed one are not attempted and absent from the results.
	OK bool
	// Start / End are the operation's invocation and response instants on
	// the run clock: exact virtual instants, so histories are
	// deterministic. For failed operations End is when the failure was
	// recorded — the response never reached the caller, so linearizability
	// checking treats the operation's window as open-ended.
	Start, End time.Duration
}

// ProcResult is one process's view of a scripted run. Status uses the
// shared vocabulary: StatusDecided = the whole script completed (even if
// the process crashed afterwards while serving others), StatusCrashed = a
// timed crash struck mid-script, StatusBlocked = the run was aborted
// (quiescence or bounds) before the script completed.
type ProcResult struct {
	Status sim.Status
	Ops    []OpResult
}

// Result aggregates a scripted register run.
type Result struct {
	Procs   []ProcResult
	Metrics metrics.Snapshot
	// Elapsed is the run duration on the virtual clock (always equal to
	// VirtualTime, so Results are bit-reproducible from their Configs).
	Elapsed time.Duration
	// VirtualTime / Steps / Quiesced report the engine's clock,
	// event count, and quiescence verdict. NOTE: unlike consensus runs,
	// Quiesced=true is the NORMAL end of a register run with crashed
	// processes (survivors park in their serve loops once every live
	// script finished); a blocked OPERATION shows up as OK=false /
	// StatusBlocked on the process, not at the run level.
	VirtualTime time.Duration
	Steps       int64
	Quiesced    bool
	// DeadlineExceeded / StepsExceeded report a bounded-out run — cut short
	// at a MaxVirtualTime / MaxSteps budget, inconclusive about the fate of
	// interrupted operations (see sim.Result).
	DeadlineExceeded bool
	StepsExceeded    bool
	// Sched counts the scheduler's internal work (events scheduled,
	// timer-wheel cascades, deepest bucket; see sim.Result).
	Sched vclock.SchedulerStats
}

// Config describes one scripted register execution.
type Config struct {
	// Partition is the cluster decomposition (required).
	Partition *model.Partition
	// Scripts holds each process's operation sequence (required, length n;
	// empty scripts are fine — such processes only serve).
	Scripts [][]Op
	// Seed makes all randomness (message delays) reproducible: it pins
	// the entire execution.
	Seed int64
	// Crashes supplies timed crashes (failures.Schedule.SetTimed): the
	// victim stops operating and serving at the instant. Step-point crash
	// plans are not meaningful for register runs and are ignored.
	Crashes *failures.Schedule
	// MaxVirtualTime bounds the virtual clock of a run; zero means
	// unbounded (quiescence and MaxSteps still apply).
	MaxVirtualTime time.Duration
	// MaxSteps bounds the number of discrete events of a run; zero means
	// sim.DefaultMaxSteps, negative means unbounded.
	MaxSteps int64
	// MinDelay/MaxDelay bound uniform random message transit time.
	MinDelay, MaxDelay time.Duration
	// NetOptions appends extra network options (e.g. a compiled
	// NetworkProfile delay policy); a delay policy here replaces
	// MinDelay/MaxDelay.
	NetOptions []netsim.Option
}

// ErrBadConfig reports an invalid scripted-run configuration.
var ErrBadConfig = errors.New("register: invalid configuration")

// doneMsg announces that the sender finished its script (it keeps serving
// until every live process announced the same, so late operations still
// find responders).
type doneMsg struct{}

// mergeInto folds pair into a cluster cell: the larger timestamp wins, and
// an equal one keeps the incumbent.
func mergeInto(cell *tagged, pair tagged) {
	if cell.TS.Less(pair.TS) {
		*cell = pair
	}
}

// client is one process of a scripted run: an ABD client for its own
// operations and a server for everyone else's, multiplexed over a single
// inbox (so the whole process is one coroutine).
type client struct {
	id    model.ProcID
	part  *model.Partition
	net   *netsim.Network
	cells []tagged // one per cluster, shared by its members
	h     *driver.Handle
	seq   int64

	doneFrom *model.ProcSet // processes whose scripts finished
	live     *model.ProcSet // processes expected to announce doneMsg

	status sim.Status
	ops    []OpResult
}

// cellOf returns the memory cell of p's cluster.
func (c *client) cellOf(p model.ProcID) *tagged {
	return &c.cells[c.part.ClusterOf(p)]
}

// serve handles one server-side or bookkeeping message. It returns the
// payload and sender when the message is an acknowledgment for this
// client's own collection, and ok=false otherwise.
func (c *client) serve(msg netsim.Message) (payload any, from model.ProcID, isAck bool) {
	switch m := msg.Payload.(type) {
	case queryMsg:
		cur := *c.cellOf(c.id)
		c.net.Send(c.id, msg.From, queryAck{Seq: m.Seq, Cur: cur})
	case updateMsg:
		mergeInto(c.cellOf(c.id), m.Pair)
		c.net.Send(c.id, msg.From, updateAck{Seq: m.Seq})
	case doneMsg:
		c.doneFrom.Add(msg.From)
	case queryAck, updateAck:
		return msg.Payload, msg.From, true
	}
	return nil, 0, false
}

// collectQuery broadcasts a query and waits until the cluster closure of
// responders covers a majority, returning the maximum (ts, value) seen.
// ok=false means the run aborted or a timed crash struck.
func (c *client) collectQuery() (tagged, bool) {
	c.seq++
	seq := c.seq
	c.net.Broadcast(c.id, queryMsg{Seq: seq})
	covered := model.NewProcSet(c.part.N())
	// Own cluster answers locally: shared memory needs no message. This is
	// what lets a lone majority-cluster member finish instantly.
	best := *c.cellOf(c.id)
	covered.UnionInto(c.part.Cluster(c.id))
	for !covered.IsMajority() {
		msg, ok := c.net.Receive(c.id)
		if c.h.Killed() || !ok {
			return tagged{}, false
		}
		payload, from, isAck := c.serve(msg)
		if !isAck {
			continue
		}
		if ack, ok := payload.(queryAck); ok && ack.Seq == seq {
			if best.TS.Less(ack.Cur.TS) {
				best = ack.Cur
			}
			covered.UnionInto(c.part.Cluster(from))
		}
	}
	return best, true
}

// collectUpdate broadcasts an update and waits for closure-majority acks.
func (c *client) collectUpdate(pair tagged) bool {
	c.seq++
	seq := c.seq
	c.net.Broadcast(c.id, updateMsg{Seq: seq, Pair: pair})
	covered := model.NewProcSet(c.part.N())
	// Local merge: own cluster's cell is updated without messages.
	mergeInto(c.cellOf(c.id), pair)
	covered.UnionInto(c.part.Cluster(c.id))
	for !covered.IsMajority() {
		msg, ok := c.net.Receive(c.id)
		if c.h.Killed() || !ok {
			return false
		}
		payload, from, isAck := c.serve(msg)
		if !isAck {
			continue
		}
		if ack, ok := payload.(updateAck); ok && ack.Seq == seq {
			covered.UnionInto(c.part.Cluster(from))
		}
	}
	return true
}

// fail records the failure status of an operation interrupted after being
// invoked at start.
func (c *client) fail(op Op, start time.Duration) {
	if c.h.Killed() {
		c.status = sim.StatusCrashed
	} else {
		c.status = sim.StatusBlocked
	}
	c.ops = append(c.ops, OpResult{Kind: op.Kind, Val: op.Val, OK: false, Start: start, End: c.h.Now()})
}

// allLiveDone reports whether every live process announced script
// completion.
func (c *client) allLiveDone() bool {
	for p := 0; p < c.part.N(); p++ {
		pid := model.ProcID(p)
		if c.live.Contains(pid) && !c.doneFrom.Contains(pid) {
			return false
		}
	}
	return true
}

// run executes the script, then serves until every live process finished.
func (c *client) run(script []Op) {
	for _, op := range script {
		if op.After > 0 && !c.h.Sleep(op.After) {
			c.fail(op, c.h.Now())
			return
		}
		if c.h.Killed() {
			c.fail(op, c.h.Now())
			return
		}
		start := c.h.Now()
		cur, ok := c.collectQuery()
		if !ok {
			c.fail(op, start)
			return
		}
		switch op.Kind {
		case OpWrite:
			next := tagged{TS: Timestamp{Counter: cur.TS.Counter + 1, Writer: c.id}, Val: op.Val}
			if !c.collectUpdate(next) {
				c.fail(op, start)
				return
			}
			c.ops = append(c.ops, OpResult{Kind: OpWrite, Val: op.Val, OK: true, Start: start, End: c.h.Now()})
		case OpRead:
			// Write-back (ABD repair): ensure the value is majority-replicated
			// before returning, so later reads cannot observe older state.
			if !c.collectUpdate(cur) {
				c.fail(op, start)
				return
			}
			c.ops = append(c.ops, OpResult{Kind: OpRead, Val: cur.Val, OK: true, Start: start, End: c.h.Now()})
		}
	}
	c.status = sim.StatusDecided
	// Script done: announce it (the broadcast loops back to us) and keep
	// serving so other processes' operations still find responders.
	c.net.Broadcast(c.id, doneMsg{})
	for !c.allLiveDone() {
		msg, ok := c.net.Receive(c.id)
		if c.h.Killed() || !ok {
			return // status stays Decided: the script itself completed
		}
		c.serve(msg)
	}
}

// Run executes one scripted register run.
func Run(cfg Config) (*Result, error) {
	if cfg.Partition == nil {
		return nil, fmt.Errorf("%w: nil partition", ErrBadConfig)
	}
	n := cfg.Partition.N()
	if len(cfg.Scripts) != n {
		return nil, fmt.Errorf("%w: %d scripts for %d processes", ErrBadConfig, len(cfg.Scripts), n)
	}
	for i, script := range cfg.Scripts {
		for j, op := range script {
			if op.Kind != OpWrite && op.Kind != OpRead {
				return nil, fmt.Errorf("%w: script %d op %d has kind %d", ErrBadConfig, i, j, int(op.Kind))
			}
			if op.After < 0 {
				return nil, fmt.Errorf("%w: script %d op %d has negative After", ErrBadConfig, i, j)
			}
		}
	}

	var ctr metrics.Counters
	var nw *netsim.Network
	cells := make([]tagged, cfg.Partition.M())
	// Processes scheduled to crash never announce completion; survivors
	// stop serving once every other process announced.
	live := model.NewProcSet(n)
	crashed := cfg.Crashes.Crashed()
	for p := 0; p < n; p++ {
		if !crashed.Contains(model.ProcID(p)) {
			live.Add(model.ProcID(p))
		}
	}

	clients := make([]*client, n)
	out, err := driver.Run(driver.Config{
		MaxVirtualTime: cfg.MaxVirtualTime,
		MaxSteps:       cfg.MaxSteps,
		Crashes:        cfg.Crashes,
	}, n, driver.StandardNet(&nw, n, uint64(cfg.Seed)^0x5ca1_ab1e, &ctr, cfg.MinDelay, cfg.MaxDelay, cfg.NetOptions...),
		func(i int, h *driver.Handle) {
			c := &client{
				id:       model.ProcID(i),
				part:     cfg.Partition,
				net:      nw,
				cells:    cells,
				h:        h,
				doneFrom: model.NewProcSet(n),
				live:     live,
				status:   sim.StatusBlocked, // until the script completes
			}
			clients[i] = c
			c.run(cfg.Scripts[i])
		})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Procs:            make([]ProcResult, n),
		Metrics:          ctr.Read(),
		Elapsed:          out.Elapsed,
		VirtualTime:      out.VirtualTime,
		Steps:            out.Steps,
		Quiesced:         out.Quiesced,
		DeadlineExceeded: out.DeadlineExceeded,
		StepsExceeded:    out.StepsExceeded,
		Sched:            out.Sched,
	}
	for i, c := range clients {
		res.Procs[i] = ProcResult{Status: c.status, Ops: c.ops}
	}
	return res, nil
}
