package allforone

// The golden corpus: every pinned scenario of the five golden tables —
// baseline, smr, dense, allconcur and closure — is a goldenCell, and one loop
// runs them all. Each cell must pass protocol.Check (over a recorded trace, where
// the protocol records one), end cut by a bound exactly when the cell says
// so, and reproduce its hash in testdata/golden.txt. Every
// crash point, broadcast, counter bump and message consumption must stay at
// its sequence position — the network's RNG stream and the scheduler's
// (at,seq) order ride on them — so any rewrite of a protocol or of the engine
// must reproduce these hashes: the corpus says "same as before", and Check
// says "correct".

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"allforone/internal/allconcur"
	"allforone/internal/multivalued"
	"allforone/internal/protocol"
	"allforone/internal/register"
	"allforone/internal/sim"
	"allforone/internal/smr"
	"allforone/internal/vclock"
)

// goldenCell is one pinned run.
type goldenCell struct {
	name    string // "<table>/<cell>", the corpus key
	sc      Scenario
	bounded bool                 // a step or virtual-time bound must cut the run; otherwise none may
	check   func(*Outcome) error // the table's own demand on the run, if any
}

// goldenCorpus is testdata/golden.txt: corpus key → hash.
var goldenCorpus = sync.OnceValues(func() (map[string]uint64, error) {
	f, err := os.Open("testdata/golden.txt")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	corpus := map[string]uint64{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("testdata/golden.txt:%d: want \"<cell> <hash>\", got %q", line, text)
		}
		h, err := strconv.ParseUint(fields[1], 0, 64)
		if err != nil {
			return nil, fmt.Errorf("testdata/golden.txt:%d: %v", line, err)
		}
		if _, dup := corpus[fields[0]]; dup {
			return nil, fmt.Errorf("testdata/golden.txt:%d: %s listed twice", line, fields[0])
		}
		corpus[fields[0]] = h
	}
	return corpus, sc.Err()
})

// runGolden runs a table's cells and holds each to Check, its bound and its
// corpus hash. Outside -short, every corpus entry of the table must be run.
func runGolden(t *testing.T, table string, cells []goldenCell) {
	t.Helper()
	corpus, err := goldenCorpus()
	if err != nil {
		t.Fatal(err)
	}
	ran := map[string]bool{}
	for _, c := range cells {
		ran[c.name] = true
		if p, _ := LookupProtocol(c.sc.Protocol); p.Info().Traceable {
			c.sc.Trace = NewTrace() // Check then holds the history too
		}
		out, err := Run(c.sc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if vs := protocol.Check(c.sc, out); vs != nil {
			t.Fatalf("%s: %v", c.name, vs)
		}
		if out.BoundedOut() != c.bounded {
			t.Fatalf("%s: BoundedOut = %v, want %v: %+v", c.name, out.BoundedOut(), c.bounded, out.Procs)
		}
		if c.check != nil {
			if err := c.check(out); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		want, ok := corpus[c.name]
		if !ok {
			t.Errorf("%s: not in testdata/golden.txt", c.name)
		}
		if got := outcomeHash(t, out); got != want {
			t.Errorf("%s: Outcome hash %#016x, want %#016x (steps %d, virtual %v, msgs %d/%d)",
				c.name, got, want, out.Steps, out.VirtualTime, out.Metrics.MsgsDelivered, out.Metrics.MsgsSent)
		}
	}
	if testing.Short() {
		return
	}
	for name := range corpus {
		if strings.HasPrefix(name, table+"/") && !ran[name] {
			t.Errorf("%s: in testdata/golden.txt but never run", name)
		}
	}
}

// seedOf derives a cell's seed from its name within its table.
func seedOf(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() >> 1)
}

// outcomeHash is the FNV-64a of the Outcome's JSON encoding with the
// storage counters masked. The allconcur hashes were recorded with both
// Elapsed fields zeroed as well.
func outcomeHash(t *testing.T, out *Outcome) uint64 {
	t.Helper()
	var raw *vclock.SchedulerStats
	switch r := out.Raw.(type) {
	case *sim.Result:
		raw = &r.Sched
	case *smr.Result:
		raw = &r.Sched
	case *multivalued.Result:
		raw = &r.Sched
	case *register.Result:
		raw = &r.Sched
	case *allconcur.Result:
		raw = &r.Sched
		out.Elapsed, r.Elapsed = 0, 0
	default:
		t.Fatalf("no golden hash for a %T", out.Raw)
	}
	maskStorageCounters(out, raw)
	js, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(js)
	return h.Sum64()
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
