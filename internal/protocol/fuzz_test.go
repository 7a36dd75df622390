package protocol_test

import (
	"testing"

	"allforone/internal/model"
	"allforone/internal/protocol"
)

// FuzzParseProfile drives the network-profile spec parser with arbitrary
// input. The seed corpus is TestParseProfile's table; the properties are:
// no panic, accepted specs compile (or reject cleanly) for a concrete
// topology, and a message sent on a network the compiled option configures
// arrives no later than the profile's TransitBound.
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
		p, err := protocol.ParseProfile(spec)
		if err != nil {
			return
		}
		if p == nil {
			return // immediate delivery
		}
		if p.ProfileName() == "" {
			t.Fatalf("ParseProfile(%q): empty profile name", spec)
		}
		opt, err := p.Compile(part.N(), part)
		if err != nil || opt == nil {
			// Cleanly rejected at compile time (e.g. negative durations), or
			// compiled to immediate delivery — both are fine.
			return
		}
		bound, known := protocol.TransitBound(p, part.N())
		if d := delayOf(t, opt, part.N(), 0, 0, 1); known && d > bound {
			t.Fatalf("ParseProfile(%q): delay %v exceeds the transit bound %v", spec, d, bound)
		}
	})
}
