package allforone

// The allconcur Outcomes of record: a hash per cell, taken on the commit
// before the delivered set became a bitmap and news items lost their value
// string. Decisions, Delivered counts, steps, virtual time and the message
// bill all ride on the order in which missing origins are visited and on
// the dedupe verdict of every item copy, so any rewrite of that path must
// reproduce these hashes. They were re-recorded once, unchanged code, when the
// storage counters were masked out of the hash, so that the timer structure
// can be reshaped under them.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"allforone/internal/allconcur"
	"allforone/internal/vclock"
)

// allconcurGolden maps "n=<n>/<overlay>/<crashes>" to the FNV-64a of the
// run's JSON Outcome with both Elapsed fields and the storage counters
// (maskStorageCounters) zeroed.
var allconcurGolden = map[string]uint64{
	"n=64/debruijn/crash-free":      0x817181b4b935c430,
	"n=64/debruijn/two-at-150us":    0x398a7411e1320fb3,
	"n=64/debruijn/instant-p0":      0x14dd6f105c7422f4,
	"n=64/circulant/crash-free":     0x5c49466936411a02,
	"n=64/circulant/two-at-150us":   0xfaff212685343f34,
	"n=64/circulant/instant-p0":     0xb63ebd18cc20af58,
	"n=300/debruijn/crash-free":     0x6901298207529acc,
	"n=300/debruijn/two-at-150us":   0x54f626fdc5fa28f8,
	"n=300/debruijn/instant-p0":     0x269454aa0c9c8019,
	"n=300/circulant/crash-free":    0x52482ce1280ebd4a,
	"n=300/circulant/two-at-150us":  0x34bfb44ec0bd0c80,
	"n=300/circulant/instant-p0":    0x3672613315db4e15,
	"n=1024/debruijn/crash-free":    0x58211cee147e6fe6,
	"n=1024/debruijn/two-at-150us":  0x626287d6813fb293,
	"n=1024/debruijn/instant-p0":    0x97a8cbfc93fd54d3,
	"n=1024/circulant/crash-free":   0x6912c23f385c729e,
	"n=1024/circulant/two-at-150us": 0xf569a46415e6e4e1,
	"n=1024/circulant/instant-p0":   0xf1e01f7e87be667d,
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
	raw := out.Raw.(*allconcur.Result)
	out.Elapsed = 0
	raw.Elapsed = 0
	maskStorageCounters(out, &raw.Sched)
	return jsonHash(t, out)
}

// maskStorageCounters zeroes the two scheduler counters that say where the
// timer structure stored events rather than which events ran and when —
// MaxBucketDepth (the deepest bucket) and ShardEvents (events inserted
// through the shard path) — in the Outcome and in its raw result's copy.
// Everything else the scheduler counts stays in the hash.
func maskStorageCounters(out *Outcome, raw *vclock.SchedulerStats) {
	for _, st := range []*vclock.SchedulerStats{&out.Sched, raw} {
		st.MaxBucketDepth, st.ShardEvents = 0, 0
	}
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
