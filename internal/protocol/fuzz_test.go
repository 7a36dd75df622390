package protocol

import (
	"math/rand/v2"
	"testing"

	"allforone/internal/model"
	"allforone/internal/netsim"
)

// newFuzzRNG returns a fixed-seed RNG for delay-function probes.
func newFuzzRNG() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }

// netsimMessage builds a probe message.
func netsimMessage(from, to int) netsim.Message {
	return netsim.Message{From: model.ProcID(from), To: model.ProcID(to)}
}

// FuzzParseProfile drives the network-profile spec parser with arbitrary
// input. The seed corpus is TestParseProfile's table; the properties are:
// no panic, accepted specs compile (or reject cleanly) for a concrete
// topology, and compiled delay functions never return negative transit
// times for the zero-value message.
func FuzzParseProfile(f *testing.F) {
	for _, seed := range []string{
		"", "none", "immediate",
		"uniform:0s:2ms", "skew:100us:50us", "wan:50us:1ms:100us", "heal:2ms:0s:200us",
		"warp:1ms", "uniform:1ms", "uniform:x:y", "skew:1ms:2ms:3ms",
		"uniform:-1ms:2ms", "heal:2ms:300us:200us", "wan:::",
		"uniform:9999999h:9999999h", "skew:1ns:1ns:",
		"uniform:5ms:0", "uniform:2ms:1ms", "uniform:0s:0s",
	} {
		f.Add(seed)
	}
	part := model.Fig1Left()
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseProfile(spec)
		if err != nil {
			return
		}
		if p == nil {
			return // immediate delivery
		}
		if p.ProfileName() == "" {
			t.Fatalf("ParseProfile(%q): empty profile name", spec)
		}
		fn, err := p.Compile(part.N(), part)
		if err != nil || fn == nil {
			// Cleanly rejected at compile time (e.g. negative durations), or
			// compiled to immediate delivery — both are fine.
			return
		}
		if d := fn(0, newFuzzRNG(), netsimMessage(0, 1)); d < 0 {
			t.Fatalf("ParseProfile(%q): negative delay %v", spec, d)
		}
	})
}
