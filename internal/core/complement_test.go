package core

// The value-complement relation: the round machine treats 0 and 1 alike, so
// complementing every proposal and every coin output flips every decision
// and leaves the run's schedule — its engine record — and every count
// unchanged. A machine that read ⊥ as a value, or broke a tie towards one,
// would fail it.

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"allforone/internal/coin"
	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/protocol"
)

// flipped is the complement of a binary value.
func flipped(v model.Value) model.Value { return 1 - v }

// flippedLocal is a seeded local coin whose every draw is complemented.
type flippedLocal struct{ coin.PRNGLocal }

func (c *flippedLocal) Flip() model.Value { return flipped(c.PRNGLocal.Flip()) }

// flippedCommon is a seeded common coin whose every bit is complemented.
type flippedCommon struct{ coin.Common }

func (c flippedCommon) Bit(r int) model.Value { return flipped(c.Common.Bit(r)) }

// complemented returns sc with every proposal complemented, and v with the
// coins it would seed for sc complemented, through its coin overrides.
func complemented(sc protocol.Scenario, v Variant) (protocol.Scenario, Variant) {
	props := make([]model.Value, len(sc.Workload.Binary))
	for i, p := range sc.Workload.Binary {
		props[i] = flipped(p)
	}
	sc.Workload.Binary = props
	v.LocalCoinOverride = func(p model.ProcID) coin.Local {
		return &flippedLocal{coin.NewPRNGLocal(coin.DeriveLocalSeed(sc.Seed, p))}
	}
	v.CommonCoinOverride = flippedCommon{coin.NewSplitMixCommon(uint64(sc.Seed) ^ v.CoinSalt)}
	return sc, v
}

// checkComplement runs sc on v and on the complement of both, and fails
// unless every process ends alike with its decision flipped, and the engine
// record, the counters and the per-cluster counts are equal.
func checkComplement(t *testing.T, sc protocol.Scenario, v Variant) {
	t.Helper()
	want, err := RunVariant(sc, v)
	if err != nil {
		t.Fatalf("seed %d: %v", sc.Seed, err)
	}
	got, err := RunVariant(complemented(sc, v))
	if err != nil {
		t.Fatalf("seed %d, complemented: %v", sc.Seed, err)
	}
	decided := 0
	for i, w := range want.Procs {
		if w.Status == StatusDecided {
			w.Decision = flipped(w.Decision)
			decided++
		}
		if got.Procs[i] != w {
			t.Fatalf("seed %d: process %d ends %+v on the complement, want %+v", sc.Seed, i, got.Procs[i], w)
		}
	}
	if decided == 0 {
		t.Fatalf("seed %d: no process decided; the relation checks no decision", sc.Seed)
	}
	if got.Engine != want.Engine || got.Metrics != want.Metrics ||
		!reflect.DeepEqual(got.ConsInvocations, want.ConsInvocations) || !reflect.DeepEqual(got.ConsAllocations, want.ConsAllocations) {
		t.Fatalf("seed %d: the complement ran differently:\n  got:  %+v\n  want: %+v", sc.Seed, got, want)
	}
}

// complementCases are the relation's runs on n = 7 processes: seeded random
// proposals under a 0–200 µs band, crash-free and with p1 crashing
// mid-broadcast in round 1 and p7 before deciding in round 2.
func complementCases(t *testing.T, base protocol.Scenario) []protocol.Scenario {
	t.Helper()
	rng := rand.New(rand.NewPCG(0xc0, 0x31))
	var scs []protocol.Scenario
	for seed := int64(1); seed <= 20; seed++ {
		for _, crash := range []bool{false, true} {
			sc := base
			sc.Seed, sc.Profile = seed, protocol.Uniform(0, 200*time.Microsecond)
			sc.Bounds.MaxRounds = 10_000
			sc.Workload.Binary = make([]model.Value, 7)
			for i := range sc.Workload.Binary {
				sc.Workload.Binary[i] = model.BitToValue(rng.Uint64())
			}
			if crash {
				sc.Faults = failures.NewSchedule(7)
				err := sc.Faults.Set(0, failures.Crash{At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageMidBroadcast}})
				if err == nil {
					err = sc.Faults.Set(6, failures.Crash{At: failures.Point{Round: 2, Phase: 1, Stage: failures.StageBeforeDecide}})
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			scs = append(scs, sc)
		}
	}
	return scs
}

// TestValueComplement holds both algorithms on the hybrid model, over
// Fig1Right and over singletons, to the value-complement relation.
func TestValueComplement(t *testing.T) {
	t.Parallel()
	for _, algo := range algorithms {
		for name, part := range map[string]*model.Partition{"fig1-right": model.Fig1Right(), "singletons-7": model.Singletons(7)} {
			t.Run(fmt.Sprintf("%s/%s", algo, name), func(t *testing.T) {
				t.Parallel()
				base := protocol.Scenario{Topology: protocol.Topology{Partition: part}, Algorithm: algo}
				for _, sc := range complementCases(t, base) {
					checkComplement(t, sc, Hybrid)
				}
			})
		}
	}
}
