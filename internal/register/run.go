package register

import (
	"fmt"
	"time"

	"allforone/internal/driver"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// This file is the register's closed-run entry point on the engine driver
// (internal/driver): each process executes a scripted sequence of
// read/write operations while serving its cluster's share of the ABD
// protocol. A run is a pure function of its Scenario — same seed, same
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

// kindOf returns the kind of a scripted operation.
func kindOf(op protocol.RegisterOp) OpKind {
	if op.Write {
		return OpWrite
	}
	return OpRead
}

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
	// Quiesced is the NORMAL end of a register run with crashed processes:
	// survivors wait in their serve loops once every live script finished.
	// A blocked OPERATION shows up as OK=false / StatusBlocked on the
	// process, not at the run level.
	sim.Engine
}

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

// stage is where a client waits.
type stage int

const (
	unstarted stage = iota // before the first invocation
	sleeping               // in the current operation's After delay
	querying               // collecting the current operation's query acks
	updating               // collecting the current operation's update acks
	serving                // script done: serving until every live process is
)

// client is one process of a scripted run: an ABD client for its own
// operations and a server for everyone else's, multiplexed over a single
// inbox (so the whole process is one driver.Reactor). It waits in an
// operation's After delay — the messages that land meanwhile stay queued —
// in a query or update collection, or, its script done, while serving.
type client struct {
	id     model.ProcID
	part   *model.Partition
	net    *netsim.Network
	cells  []tagged // one per cluster, shared by its members
	h      *driver.Handle
	script []protocol.RegisterOp
	seq    int64

	doneFrom *model.ProcSet // processes whose scripts finished
	live     *model.ProcSet // processes expected to announce doneMsg

	stage    stage
	op       int           // the current operation's index in script
	deadline time.Duration // end of the current After delay
	start    time.Duration // the current operation's invocation instant
	covered  *model.Quorum // the current collection's responders, closed over clusters
	best     tagged        // the maximum (ts, value) the current query saw

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

// React runs one invocation: drain every deliverable message and advance
// the script to its next wait point.
func (c *client) React(aborted bool) bool {
	if c.stage == unstarted {
		if aborted {
			return true // the run ended before this process took a step
		}
		if c.nextOp() {
			return true
		}
	}
	if aborted {
		return c.interrupt() // queued messages stay unconsumed
	}
	for {
		switch {
		case c.stage == sleeping:
			if c.h.Now() < c.deadline {
				return false // a delivery woke the sleeper; it stays queued
			}
			if c.startOp() {
				return true
			}
			continue
		case c.stage == serving && c.allLiveDone():
			return true
		case c.stage != serving && c.covered.Covered():
			if c.collected() {
				return true
			}
			continue
		}
		msg, ok, closed := c.net.ReceiveNow(c.id)
		if c.h.Killed() || (!ok && closed) {
			return c.interrupt()
		}
		if !ok {
			return false // inbox drained; wait for the next wake
		}
		payload, from, isAck := c.serve(msg)
		if !isAck {
			continue
		}
		switch ack := payload.(type) {
		case queryAck:
			if c.stage == querying && ack.Seq == c.seq {
				if c.best.TS.Less(ack.Cur.TS) {
					c.best = ack.Cur
				}
				c.covered.Add(from, model.Bot)
			}
		case updateAck:
			if c.stage == updating && ack.Seq == c.seq {
				c.covered.Add(from, model.Bot)
			}
		}
	}
}

// nextOp moves to the script's next operation — after its After delay, if
// it has one — or, the script complete, announces it (the broadcast loops
// back to us) and keeps serving so other processes' operations still find
// responders. It reports whether the process finished.
func (c *client) nextOp() bool {
	if c.op == len(c.script) {
		c.status = sim.StatusDecided
		c.net.Broadcast(c.id, doneMsg{})
		c.stage = serving
		return false
	}
	if after := c.script[c.op].After; after > 0 {
		c.stage, c.deadline = sleeping, c.h.Now()+after
		c.h.WakeAfter(after)
		return false
	}
	return c.startOp()
}

// startOp invokes the current operation: its query phase.
func (c *client) startOp() bool {
	if c.h.Killed() {
		c.fail(c.h.Now())
		return true
	}
	c.start = c.h.Now()
	c.stage = querying
	// Own cluster answers locally: shared memory needs no message. This is
	// what lets a lone majority-cluster member finish instantly.
	c.collect(queryMsg{Seq: c.seq + 1})
	c.best = *c.cellOf(c.id)
	return false
}

// collect broadcasts a collection's request under the next sequence number
// and counts the own cluster as its first responders.
func (c *client) collect(req any) {
	c.seq++
	c.net.Broadcast(c.id, req)
	c.covered.Reset()
	c.covered.Add(c.id, model.Bot)
}

// collected acts on a collection whose responders' clusters cover a
// majority: a query moves on to its update — a write's new pair, or a
// read's write-back (ABD repair: the value is majority-replicated before
// the read returns, so later reads cannot observe older state) — and an
// update completes the operation.
func (c *client) collected() bool {
	op := c.script[c.op]
	if c.stage == querying {
		pair := c.best
		if op.Write {
			pair = tagged{TS: Timestamp{Counter: c.best.TS.Counter + 1, Writer: c.id}, Val: op.Val}
		}
		c.stage = updating
		c.collect(updateMsg{Seq: c.seq + 1, Pair: pair})
		// Local merge: own cluster's cell is updated without messages.
		mergeInto(c.cellOf(c.id), pair)
		return false
	}
	val := op.Val
	if !op.Write {
		val = c.best.Val
	}
	c.ops = append(c.ops, OpResult{Kind: kindOf(op), Val: val, OK: true, Start: c.start, End: c.h.Now()})
	c.op++
	return c.nextOp()
}

// interrupt ends the process where the run's abort or a timed crash found
// it: the current operation fails, or, the script done, serving stops with
// the status still Decided.
func (c *client) interrupt() bool {
	switch c.stage {
	case sleeping:
		c.fail(c.h.Now())
	case querying, updating:
		c.fail(c.start)
	}
	return true
}

// fail records the failure status of the current operation, invoked at
// start.
func (c *client) fail(start time.Duration) {
	if c.h.Killed() {
		c.status = sim.StatusCrashed
	} else {
		c.status = sim.StatusBlocked
	}
	op := c.script[c.op]
	c.ops = append(c.ops, OpResult{Kind: kindOf(op), Val: op.Val, OK: false, Start: start, End: c.h.Now()})
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

// runScenario executes one registry-validated scripted register run. The
// scenario's timed crashes (failures.Schedule.SetTimed) stop the victim
// operating and serving at the instant; the registry rejects step-point
// plans for this protocol.
func runScenario(sc protocol.Scenario) (*protocol.Outcome, error) {
	setup, err := sc.Setup()
	if err != nil {
		return nil, err
	}
	part, scripts := sc.Topology.Partition, sc.Workload.Scripts
	n := part.N()
	var ctr metrics.Counters
	var nw *netsim.Network
	cells := make([]tagged, part.M())
	// Processes with a timed crash may never announce completion; survivors
	// stop serving once every other process announced. Step-point plans are
	// ignored, so their processes stay live.
	live := model.NewProcSet(n)
	for p := 0; p < n; p++ {
		if _, timed := setup.Crashes.TimedPlan(model.ProcID(p)); !timed {
			live.Add(model.ProcID(p))
		}
	}

	clients := make([]client, n)
	tallies := model.NewQuorums(part, n)
	out, err := driver.RunHandlers(driver.Config{
		MaxVirtualTime: setup.MaxVirtualTime,
		MaxSteps:       setup.MaxSteps,
		Crashes:        setup.Crashes,
	}, n, driver.StandardNet(&nw, n, uint64(setup.Seed)^0x5ca1_ab1e, &ctr, 0, 0, setup.NetOption),
		func(i int, h *driver.Handle) driver.Reactor {
			c := &clients[i]
			*c = client{
				id:       model.ProcID(i),
				part:     part,
				net:      nw,
				cells:    cells,
				h:        h,
				doneFrom: model.NewProcSet(n),
				live:     live,
				covered:  &tallies[i],
				script:   scripts[i],
				status:   sim.StatusBlocked, // until the script completes
			}
			return c
		})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Procs:   make([]ProcResult, n),
		Metrics: ctr.Read(),
		Engine:  out,
	}
	o := &protocol.Outcome{
		Protocol: ProtocolName,
		Procs:    make([]protocol.ProcOutcome, n),
		Metrics:  res.Metrics,
		Engine:   res.Engine,
		Raw:      res,
	}
	for i := range clients {
		res.Procs[i] = ProcResult{Status: clients[i].status, Ops: clients[i].ops}
		// Register runs have no consensus decision; Decision stays empty
		// and per-operation results live in Raw (*register.Result).
		o.Procs[i] = protocol.ProcOutcome{Status: clients[i].status}
	}
	return o, nil
}
