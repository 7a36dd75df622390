// Package coin provides the randomization oracles of the paper (§II-B):
//
//   - a local coin (LC): per-process function local_coin() returning 0 or 1
//     each with probability 1/2, independent across processes;
//   - a common coin (CC): global function common_coin() delivering the same
//     sequence of unbiased random bits b_1, b_2, … to every process — the
//     r-th invocation by p_i and the r-th invocation by p_j return the very
//     same bit.
//
// The paper delegates the distributed construction of a common coin to
// textbooks; as recorded in DESIGN.md we substitute a deterministic shared
// bit sequence derived from a run seed (SplitMix64), which provides exactly
// the properties the model requires: sameness across processes and
// unbiasedness across rounds.
//
// The package also provides rigged coins so tests can steer executions into
// specific schedules (e.g. forcing the disagree-then-converge path).
//
// No coin synchronizes: the scheduler's single execution token runs every
// process body, so flips never overlap. The cost figure is
// metrics.Snapshot.CoinFlips, counted by the protocols.
package coin

import (
	"fmt"
	"math/rand/v2"

	"allforone/internal/model"
)

// Local is the local-coin interface: Flip returns 0 or 1.
type Local interface {
	Flip() model.Value
}

// Common is the common-coin interface: Bit(r) returns the r-th shared bit
// (rounds are 1-based as in the paper).
type Common interface {
	Bit(round int) model.Value
}

// PRNGLocal is a seeded PCG-backed local coin. Distinct processes must use
// distinct seeds to preserve the model's independence requirement; see
// DeriveLocalSeed.
//
// PRNGLocal is not safe for concurrent use; each simulated process owns its
// own coin, matching the model (local_coin is a per-process function).
type PRNGLocal struct {
	rng *rand.Rand
}

// NewPRNGLocal returns a local coin seeded with (seed1, seed2).
func NewPRNGLocal(seed1, seed2 uint64) *PRNGLocal {
	return &PRNGLocal{rng: rand.New(rand.NewPCG(seed1, seed2))}
}

// Flip implements Local.
func (c *PRNGLocal) Flip() model.Value {
	return model.BitToValue(c.rng.Uint64())
}

// DeriveLocalSeed expands a run seed into a per-process seed pair so that
// the n local coins of one run are mutually independent but the whole run
// remains reproducible from the single run seed.
func DeriveLocalSeed(runSeed int64, p model.ProcID) (uint64, uint64) {
	base := splitmix64(uint64(runSeed) ^ 0x9e3779b97f4a7c15)
	return splitmix64(base + uint64(p)*0xbf58476d1ce4e5b9), splitmix64(base ^ (uint64(p) + 0x94d049bb133111eb))
}

// SplitMixCommon is the shared-sequence common coin: Bit(r) is a pure
// function of (seed, r), so every process holding the same seed reads the
// same sequence — the defining property of the paper's common coin.
// It is stateless beyond the seed, so one coin may serve every process.
type SplitMixCommon struct {
	seed uint64
}

// NewSplitMixCommon returns a common coin for the given run seed.
func NewSplitMixCommon(seed uint64) *SplitMixCommon {
	return &SplitMixCommon{seed: seed}
}

// Bit implements Common.
func (c *SplitMixCommon) Bit(round int) model.Value {
	return model.BitToValue(splitmix64(c.seed + uint64(round)*0x9e3779b97f4a7c15))
}

// splitmix64 is the SplitMix64 finalizer (Steele, Lea & Flood 2014), a
// high-quality 64-bit mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FixedLocal is a rigged local coin replaying a fixed sequence, cycling
// when exhausted. It lets tests force Ben-Or's coin case down a chosen
// path. One coin may be shared by every process of a run: the scheduler's
// execution token serializes their flips, so the replay order is
// deterministic.
type FixedLocal struct {
	seq  []model.Value
	next int
}

// NewFixedLocal returns a coin replaying seq. It panics if seq is empty or
// contains non-binary values (test-construction error).
func NewFixedLocal(seq ...model.Value) *FixedLocal {
	if len(seq) == 0 {
		panic("coin: FixedLocal needs at least one value")
	}
	for _, v := range seq {
		if !v.IsBinary() {
			panic(fmt.Sprintf("coin: FixedLocal value %v is not binary", v))
		}
	}
	return &FixedLocal{seq: seq}
}

// Flip implements Local.
func (c *FixedLocal) Flip() model.Value {
	v := c.seq[c.next%len(c.seq)]
	c.next++
	return v
}

// FixedCommon is a rigged common coin with an explicit per-round bit table,
// cycling when exhausted. It is immutable, so one coin may serve every
// process.
type FixedCommon struct {
	bits []model.Value
}

// NewFixedCommon returns a common coin whose round-r bit is
// bits[(r-1) mod len(bits)]. It panics if bits is empty or non-binary.
func NewFixedCommon(bits ...model.Value) *FixedCommon {
	if len(bits) == 0 {
		panic("coin: FixedCommon needs at least one bit")
	}
	for _, v := range bits {
		if !v.IsBinary() {
			panic(fmt.Sprintf("coin: FixedCommon bit %v is not binary", v))
		}
	}
	return &FixedCommon{bits: bits}
}

// Bit implements Common.
func (c *FixedCommon) Bit(round int) model.Value {
	if round < 1 {
		round = 1
	}
	return c.bits[(round-1)%len(c.bits)]
}

// Interface compliance.
var (
	_ Local  = (*PRNGLocal)(nil)
	_ Local  = (*FixedLocal)(nil)
	_ Common = (*SplitMixCommon)(nil)
	_ Common = (*FixedCommon)(nil)
)
