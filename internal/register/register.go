// Package register implements an atomic (linearizable) multi-writer
// multi-reader register on top of the hybrid communication model — the
// problem of the paper's reference [16] (Imbs & Raynal, "The weakest
// failure detector to implement a register in asynchronous systems with
// hybrid communication", TCS 2013), realized here with the same
// "one for all" leverage as the consensus algorithms.
//
// The construction is a cluster-aware ABD (Attiya-Bar-Noy-Dolev 1995):
// each cluster keeps one (timestamp, value) pair in its shared memory
// MEM_x, ordered by a lexicographic (counter, writer-id) timestamp.
//
//   - write(v): read-phase to learn the highest timestamp from a
//     cluster-closure majority, then write-phase broadcasting the new
//     (ts+1, v); every receiving process merges it into its cluster's
//     memory cell (max wins) and acknowledges. One ack from any member of
//     a cluster counts for the whole cluster: the merged pair sits in the
//     cluster's shared memory, visible to every member.
//   - read(): query-phase collecting (ts, v) pairs from a cluster-closure
//     majority, then a write-back phase of the maximum pair (the classic
//     ABD repair ensuring reads are totally ordered), then return v.
//
// Liveness mirrors consensus: every operation terminates in all
// executions where clusters with at least one survivor cover a majority
// of processes — so the register, like the paper's consensus, tolerates a
// majority of crashes when a majority cluster keeps one member alive.
// Classic ABD instead requires a majority of correct processes.
//
// The entry point is the registry adapter (run.go): it executes a scripted
// workload on the engine driver — deterministic, with blocked operations detected by
// quiescence. This file holds the vocabulary: timestamps, the replicated
// pair, and the four protocol messages.
package register

import (
	"fmt"

	"allforone/internal/model"
)

// Timestamp orders writes: lexicographic (Counter, Writer).
type Timestamp struct {
	Counter int64
	Writer  model.ProcID
}

// Less reports whether t precedes u.
func (t Timestamp) Less(u Timestamp) bool {
	if t.Counter != u.Counter {
		return t.Counter < u.Counter
	}
	return t.Writer < u.Writer
}

// String renders the timestamp.
func (t Timestamp) String() string { return fmt.Sprintf("(%d,%v)", t.Counter, t.Writer) }

// tagged is the replicated (timestamp, value) pair.
type tagged struct {
	TS  Timestamp
	Val string
}

// Message types.

type queryMsg struct{ Seq int64 }

type queryAck struct {
	Seq int64
	Cur tagged
}

type updateMsg struct {
	Seq  int64
	Pair tagged
}

type updateAck struct{ Seq int64 }
