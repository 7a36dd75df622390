// Package model defines the basic vocabulary of the hybrid communication
// model of Raynal & Cao (ICDCS 2019): process identities, binary consensus
// values, cluster partitions, process sets, and the cluster-closure Quorum
// every exchange counts with.
//
// The model is a set Π of n sequential asynchronous crash-prone processes
// p_0 … p_{n-1}, partitioned into m non-empty clusters P[0] … P[m-1]. Inside
// a cluster, processes share a memory; across clusters they exchange
// messages. This package is purely descriptive: it holds no synchronization
// state, only the static topology every algorithm consults.
package model

import "fmt"

// Value is a binary consensus value, or Bot (the paper's ⊥) meaning
// "no value championed".
//
// Binary consensus restricts proposals to {0, 1}; Bot appears only inside
// the protocol (as a phase-2 placeholder), never as a proposal or decision.
type Value int8

// The three values a protocol variable may hold. Zero and One are the
// proposable binary values; Bot is the internal "no value" marker.
const (
	Bot  Value = -1
	Zero Value = 0
	One  Value = 1
)

// IsBinary reports whether v is a proposable binary value (0 or 1).
func (v Value) IsBinary() bool { return v == Zero || v == One }

// Valid reports whether v is one of the three model values.
func (v Value) Valid() bool { return v == Bot || v.IsBinary() }

// String renders the value the way the paper writes it.
func (v Value) String() string {
	switch v {
	case Bot:
		return "⊥"
	case Zero:
		return "0"
	case One:
		return "1"
	}
	return fmt.Sprintf("Value(%d)", int8(v))
}

// BitToValue converts a coin bit (0 or 1) into a Value.
func BitToValue(b uint64) Value {
	if b&1 == 1 {
		return One
	}
	return Zero
}
