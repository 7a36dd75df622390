// Package metrics collects the cost counters the paper reasons about:
// messages exchanged by the communication pattern, consensus-object
// invocations inside clusters (the scalability currency of §III-C), rounds
// executed, and coin flips. Counters are updated by the simulated processes
// of one run and snapshotted by the harness at its end.
package metrics

// Counters aggregates the cost of one consensus execution. The zero value
// is ready for use. Every update runs under one run's execution token, so
// the counters are plain integers; runs executing in parallel must not
// share a Counters.
type Counters struct {
	msgsSent        int64
	msgsDelivered   int64
	broadcasts      int64
	decideMsgs      int64
	consInvocations int64
	coinFlips       int64
	roundsTotal     int64
	maxRound        int64
}

// Snapshot is an immutable copy of the counters at one instant.
type Snapshot struct {
	MsgsSent        int64 // point-to-point sends (a broadcast to n counts n)
	MsgsDelivered   int64 // messages consumed by receivers
	Broadcasts      int64 // broadcast macro-operation invocations
	DecideMsgs      int64 // DECIDE messages sent
	ConsInvocations int64 // intra-cluster consensus-object Propose calls
	CoinFlips       int64 // local-coin flips (common-coin reads are free)
	RoundsTotal     int64 // sum over processes of executed rounds
	MaxRound        int64 // highest round reached by any process
}

// AddMsgsSent records k point-to-point sends.
func (c *Counters) AddMsgsSent(k int64) { c.msgsSent += k }

// AddMsgsDelivered records k deliveries.
func (c *Counters) AddMsgsDelivered(k int64) { c.msgsDelivered += k }

// AddBroadcast records one broadcast macro-operation.
func (c *Counters) AddBroadcast() { c.broadcasts++ }

// AddDecideMsgs records k DECIDE messages.
func (c *Counters) AddDecideMsgs(k int64) { c.decideMsgs += k }

// AddConsInvocations records k consensus-object Propose calls.
func (c *Counters) AddConsInvocations(k int64) { c.consInvocations += k }

// AddCoinFlips records k local-coin flips.
func (c *Counters) AddCoinFlips(k int64) { c.coinFlips += k }

// ObserveRound records that some process completed round r (1-based).
func (c *Counters) ObserveRound(r int64) {
	c.roundsTotal++
	c.maxRound = max(c.maxRound, r)
}

// Read returns a snapshot of the counters for end-of-run reporting.
func (c *Counters) Read() Snapshot {
	return Snapshot{
		MsgsSent:        c.msgsSent,
		MsgsDelivered:   c.msgsDelivered,
		Broadcasts:      c.broadcasts,
		DecideMsgs:      c.decideMsgs,
		ConsInvocations: c.consInvocations,
		CoinFlips:       c.coinFlips,
		RoundsTotal:     c.roundsTotal,
		MaxRound:        c.maxRound,
	}
}
