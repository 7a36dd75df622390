package main

import (
	"encoding/json"
	"maps"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestRunSelectedExperiment(t *testing.T) {
	t.Parallel()
	var out strings.Builder
	err := run([]string{"-exp", "E5", "-trials", "2"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{"E5:", "hybrid", "m&m", "objects/phase"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	t.Parallel()
	var out strings.Builder
	err := run([]string{"-exp", "e5,E7", "-trials", "2"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "E5:") || !strings.Contains(s, "E7:") {
		t.Errorf("output missing experiments:\n%s", s)
	}
}

// TestRunJSON: the -json document is a pure function of its flags — the
// property the claims gate stands on. The trial pool's width must not move a
// byte of it, and a record carries findings only: no timing.
func TestRunJSON(t *testing.T) {
	t.Parallel()
	args := []string{"-exp", "E1,E5,E10", "-trials", "2", "-json"}
	var out, serial strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run(append(args, "-parallel", "1"), &serial); err != nil {
		t.Fatalf("run -parallel 1: %v", err)
	}
	if out.String() != serial.String() {
		t.Errorf("-json output differs between the default pool and -parallel 1:\n%s\n---\n%s", out.String(), serial.String())
	}
	var doc struct {
		Trials      int                          `json:"trials"`
		Experiments []map[string]json.RawMessage `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if doc.Trials != 2 || len(doc.Experiments) != 3 {
		t.Fatalf("doc = %+v", doc)
	}
	exp := doc.Experiments[0]
	if keys := slices.Sorted(maps.Keys(exp)); !slices.Equal(keys, []string{"findings", "id", "title"}) {
		t.Errorf("experiment record keys = %v, want exactly findings, id, title", keys)
	}
	var findings map[string]float64
	if err := json.Unmarshal(exp["findings"], &findings); err != nil {
		t.Fatalf("findings: %v", err)
	}
	if string(exp["id"]) != `"E1"` || len(findings) == 0 {
		t.Errorf("experiment record = %s", exp)
	}
}

func TestRunSearchMode(t *testing.T) {
	t.Parallel()
	var out strings.Builder
	err := run([]string{"-search", "-search-budget", "120", "-search-batch", "40", "-seed", "9"}, &out)
	if err != nil {
		t.Fatalf("run -search: %v", err)
	}
	s := out.String()
	for _, want := range []string{
		"adversarial schedule search", "protocol hybrid, n=8",
		"worst schedule", "replay: outcome reproduced bit-for-bit",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunSearchJSON(t *testing.T) {
	t.Parallel()
	var out strings.Builder
	if err := run([]string{"-search", "-search-budget", "80", "-json", "-search-objective", "rounds"}, &out); err != nil {
		t.Fatalf("run -search -json: %v", err)
	}
	var doc struct {
		Search *struct {
			Protocol   string `json:"protocol"`
			Budget     int    `json:"budget"`
			Objective  string `json:"objective"`
			Decided    int    `json:"decided"`
			BoundedOut int    `json:"bounded_out"`
			Reproduced bool   `json:"reproduced"`
			Worst      struct {
				Seed      int64            `json:"seed"`
				Verdict   string           `json:"verdict"`
				CrashesNS map[string]int64 `json:"crashes_ns"`
			} `json:"worst"`
		} `json:"search"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if doc.Search == nil {
		t.Fatal("no search document")
	}
	if doc.Search.Protocol != "hybrid" || doc.Search.Budget != 80 || doc.Search.Objective != "rounds" {
		t.Fatalf("search doc = %+v", doc.Search)
	}
	if !doc.Search.Reproduced {
		t.Fatal("worst finding did not reproduce")
	}
	if doc.Search.Worst.Verdict == "" || len(doc.Search.Worst.CrashesNS) == 0 {
		t.Fatalf("worst finding incomplete: %+v", doc.Search.Worst)
	}
}

func TestRunSearchBadFlags(t *testing.T) {
	t.Parallel()
	for _, args := range [][]string{
		{"-search", "-search-objective", "entropy"},
		{"-search", "-search-strategy", "chaos"},
		{"-search", "-search-protocol", "paxos"},
		{"-search", "-search-budget", "0"},
		{"-search", "-search-crashes", "99"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	t.Parallel()
	var out strings.Builder
	if err := run([]string{"-exp", "E42"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-trials", "zebra"}, "invalid value"},
		// A document of record must describe what ran: no trial count the
		// harness would replace by its default, no unnamed or repeated record.
		{[]string{"-trials", "0", "-exp", "E2", "-json"}, "-trials 0 must be at least 1"},
		{[]string{"-exp", ""}, "empty experiment id"},
		{[]string{"-exp", "E2,,E3"}, "empty experiment id"},
		{[]string{"-exp", "E2,e2", "-json"}, "names experiment E2 twice"},
	} {
		var out strings.Builder
		err := run(tc.args, &out)
		if err == nil {
			t.Errorf("%q accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %q does not say %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%q: output before the flags were rejected:\n%s", tc.args, out.String())
		}
	}
}

// TestClaimsGolden: CLAIMS.json is `hybridbench -json` at the defaults — the
// paper reproduction's 98 findings — and every committed value must equal
// what the code produces now, exactly (the engine is deterministic,
// so there is no tolerance to pick). A change that moves a finding on
// purpose regenerates the file: go run ./cmd/hybridbench -json > CLAIMS.json
func TestClaimsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite at the default 100 trials")
	}
	t.Parallel()
	const path = "../../CLAIMS.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-json"}, &out); err != nil {
		t.Fatalf("run -json: %v", err)
	}
	var committed, current jsonReport
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if err := json.Unmarshal([]byte(out.String()), &current); err != nil {
		t.Fatalf("-json output: %v", err)
	}
	if committed.Trials != current.Trials || committed.SeedBase != current.SeedBase {
		t.Errorf("header: committed trials=%d seed_base=%d, current trials=%d seed_base=%d",
			committed.Trials, committed.SeedBase, current.Trials, current.SeedBase)
	}
	now := make(map[string]jsonExperiment, len(current.Experiments))
	for _, e := range current.Experiments {
		now[e.ID] = e
	}
	for _, was := range committed.Experiments {
		cur, ok := now[was.ID]
		if !ok {
			t.Errorf("%s: committed, but no longer produced", was.ID)
			continue
		}
		delete(now, was.ID)
		if was.Title != cur.Title {
			t.Errorf("%s title: committed %q, current %q", was.ID, was.Title, cur.Title)
		}
		for _, key := range slices.Sorted(maps.Keys(was.Findings)) {
			v := was.Findings[key]
			if c, ok := cur.Findings[key]; !ok {
				t.Errorf("%s %q: committed %v, no longer produced", was.ID, key, v)
			} else if c != v {
				t.Errorf("%s %q: committed %v, current %v", was.ID, key, v, c)
			}
		}
		for key, c := range cur.Findings {
			if _, ok := was.Findings[key]; !ok {
				t.Errorf("%s %q: not committed, current %v", was.ID, key, c)
			}
		}
	}
	for id := range now {
		t.Errorf("%s: produced, but not committed", id)
	}
	if !t.Failed() && string(raw) != out.String() {
		t.Errorf("%s holds the current values but not the current bytes (order or layout): regenerate it", path)
	}
}

// docMarker introduces a fenced block of EXPERIMENTS.md that is the verbatim
// output of the hybridbench invocation it names.
var docMarker = regexp.MustCompile("^<!-- hybridbench (.+) -->$")

// TestExperimentsDocTables re-renders every marked block of EXPERIMENTS.md
// and compares it to the file, so a table quoted there cannot drift from
// the code. A block is refreshed by pasting the named command's output.
func TestExperimentsDocTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quoted experiments at the default 100 trials")
	}
	t.Parallel()
	const path = "../../EXPERIMENTS.md"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	blocks := 0
	for i := 0; i < len(lines); i++ {
		m := docMarker.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		blocks++
		start := i + 2 // first line inside the fence
		end := start
		for end < len(lines) && lines[end] != "```" {
			end++
		}
		if end >= len(lines) || lines[i+1] != "```" {
			t.Errorf("%s:%d: marker is not followed by a closed ``` block", path, i+1)
			continue
		}
		var out strings.Builder
		if err := run(strings.Fields(m[1]), &out); err != nil {
			t.Errorf("%s:%d: hybridbench %s: %v", path, i+1, m[1], err)
			continue
		}
		committed := lines[start:end]
		current := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
		for k := 0; k < max(len(committed), len(current)); k++ {
			var was, cur string
			if k < len(committed) {
				was = committed[k]
			}
			if k < len(current) {
				cur = current[k]
			}
			if was != cur {
				// Later lines of a block that gained or lost one all differ.
				t.Errorf("%s:%d (hybridbench %s):\n  committed: %s\n  current:   %s", path, start+k+1, m[1], was, cur)
				break
			}
		}
		i = end
	}
	if blocks < 2 {
		t.Errorf("%s: %d marked blocks, want at least E10 and E10D", path, blocks)
	}
}
