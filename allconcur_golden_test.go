package allforone

// The allconcur table of the golden corpus. Decisions, Delivered counts,
// steps, virtual time and the message bill all ride on the order in which
// missing origins are visited and on the dedupe verdict of every item copy,
// so any rewrite of that path must reproduce these hashes.

import (
	"fmt"
	"testing"
	"time"
)

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
	var cells []goldenCell
	for _, n := range sizes {
		for _, kind := range []OverlayKind{OverlayDeBruijn, OverlayCirculant} {
			for _, crashes := range []string{"crash-free", "two-at-150us", "instant-p0"} {
				cells = append(cells, goldenCell{
					name: fmt.Sprintf("allconcur/n=%d/%v/%s", n, kind, crashes),
					sc:   allconcurGoldenScenario(t, n, kind, crashes),
					check: func(out *Outcome) error {
						if !out.AllLiveDecided() {
							return fmt.Errorf("live processes unfinished")
						}
						return nil
					},
				})
			}
		}
	}
	runGolden(t, "allconcur", cells)
}
