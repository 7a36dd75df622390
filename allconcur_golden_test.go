package allforone

// The allconcur Outcomes of record: a hash per cell, taken on the commit
// before the delivered set became a bitmap and news items lost their value
// string. Decisions, Delivered counts, steps, virtual time and the message
// bill all ride on the order in which missing origins are visited and on
// the dedupe verdict of every item copy, so any rewrite of that path must
// reproduce these hashes.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"allforone/internal/allconcur"
)

// allconcurGolden maps "n=<n>/<overlay>/<crashes>" to the FNV-64a of the
// run's JSON Outcome with both Elapsed fields zeroed.
var allconcurGolden = map[string]uint64{
	"n=64/debruijn/crash-free":      0x6b50e529f2cca522,
	"n=64/debruijn/two-at-150us":    0x8d20ab76517cca13,
	"n=64/debruijn/instant-p0":      0xe8f1044e76908734,
	"n=64/circulant/crash-free":     0x556e6febd36e7f46,
	"n=64/circulant/two-at-150us":   0x94cd40ac5a1b6520,
	"n=64/circulant/instant-p0":     0xce0ca6935988da14,
	"n=300/debruijn/crash-free":     0x43ea3e52cc8ac076,
	"n=300/debruijn/two-at-150us":   0x43a5d79c226850ec,
	"n=300/debruijn/instant-p0":     0x935698e2cd5d1645,
	"n=300/circulant/crash-free":    0xda7025aeaad2f442,
	"n=300/circulant/two-at-150us":  0xd293e72f41339170,
	"n=300/circulant/instant-p0":    0x537a4a1d802a9e3d,
	"n=1024/debruijn/crash-free":    0x9b35c60ae32ad1a6,
	"n=1024/debruijn/two-at-150us":  0x572ff6285cfb9e63,
	"n=1024/debruijn/instant-p0":    0xbfdf46a2032a4347,
	"n=1024/circulant/crash-free":   0x1b6d31387452b76a,
	"n=1024/circulant/two-at-150us": 0x161c7ee03c080275,
	"n=1024/circulant/instant-p0":   0xd5999bcc9fbcfbd9,
}

func allconcurGoldenScenario(t *testing.T, n int, kind OverlayKind, crashes string) Scenario {
	t.Helper()
	w := Workload{}
	for i := 0; i < n; i++ {
		w.Values = append(w.Values, fmt.Sprintf("v%d", i))
	}
	sched := NewSchedule(n)
	switch crashes {
	case "two-at-150us":
		for _, p := range []ProcID{ProcID(n / 10), ProcID(n / 2)} {
			if err := sched.SetTimed(p, 150*time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
	case "instant-p0": // dies before proposing: every survivor walks the closure
		if err := sched.SetTimed(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return Scenario{
		Protocol: ProtocolAllConcur,
		Topology: Topology{N: n, Overlay: &OverlaySpec{Kind: kind, Degree: DefaultOverlayDegree(n)}},
		Workload: w,
		Faults:   sched,
		Profile:  UniformProfile(0, 200*time.Microsecond),
		Seed:     1303,
	}
}

func outcomeHash(t *testing.T, out *Outcome) uint64 {
	t.Helper()
	out.Elapsed = 0
	out.Raw.(*allconcur.Result).Elapsed = 0
	return jsonHash(t, out)
}

// jsonHash is the FNV-64a of v's JSON encoding.
func jsonHash(t *testing.T, v any) uint64 {
	t.Helper()
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(js)
	return h.Sum64()
}

// TestAllconcurOutcomeGolden: n=64 runs unsharded, n=300 and n=1024 on the
// sharded burst path; crash-free runs never walk a closure, the timed pair
// crashes mid-flood, and the instant crash of p0 makes every survivor
// exclude the smallest origin.
func TestAllconcurOutcomeGolden(t *testing.T) {
	t.Parallel()
	sizes := []int{64, 300, 1024}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		for _, kind := range []OverlayKind{OverlayDeBruijn, OverlayCirculant} {
			for _, crashes := range []string{"crash-free", "two-at-150us", "instant-p0"} {
				name := fmt.Sprintf("n=%d/%v/%s", n, kind, crashes)
				out, err := Run(allconcurGoldenScenario(t, n, kind, crashes))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !out.AllLiveDecided() {
					t.Fatalf("%s: live processes unfinished", name)
				}
				if got, want := outcomeHash(t, out), allconcurGolden[name]; got != want {
					t.Errorf("%s: Outcome hash %#016x, want %#016x", name, got, want)
				}
			}
		}
	}
}
