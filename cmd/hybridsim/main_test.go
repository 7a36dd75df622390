package main

import (
	"io"
	"strings"
	"testing"

	"allforone"

	"allforone/internal/failures"
	"allforone/internal/model"
)

func TestParseProposals(t *testing.T) {
	t.Parallel()
	props, err := parseProposals("1011", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []model.Value{model.One, model.Zero, model.One, model.One}
	for i := range want {
		if props[i] != want[i] {
			t.Fatalf("parseProposals = %v, want %v", props, want)
		}
	}
	if _, err := parseProposals("10", 4, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := parseProposals("10x1", 4, 1); err == nil {
		t.Error("bad bit accepted")
	}
	rnd, err := parseProposals("random", 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range rnd {
		if !v.IsBinary() {
			t.Errorf("random proposal %d = %v, want binary", i, v)
		}
	}
	// Deterministic under a fixed seed.
	rnd2, _ := parseProposals("random", 5, 42)
	for i := range rnd {
		if rnd[i] != rnd2[i] {
			t.Error("random proposals not reproducible for a fixed seed")
		}
	}
}

func TestParseStage(t *testing.T) {
	t.Parallel()
	tests := []struct {
		in      string
		want    failures.Stage
		wantErr bool
	}{
		{"round-start", failures.StageRoundStart, false},
		{"start", failures.StageRoundStart, false},
		{"after-cons", failures.StageAfterClusterConsensus, false},
		{"mid-broadcast", failures.StageMidBroadcast, false},
		{"broadcast", failures.StageMidBroadcast, false},
		{"after-exchange", failures.StageAfterExchange, false},
		{"before-decide", failures.StageBeforeDecide, false},
		{"decide", failures.StageBeforeDecide, false},
		{"explode", 0, true},
	}
	for _, tt := range tests {
		got, err := parseStage(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseStage(%q) error = %v", tt.in, err)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("parseStage(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseCrashes(t *testing.T) {
	t.Parallel()
	sched, err := parseCrashes("2:1:1:mid-broadcast;5:2:2:decide", "", "", 7)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Len() != 2 {
		t.Errorf("Len = %d, want 2", sched.Len())
	}
	plan, ok := sched.Plan(1) // 1-based p2 -> index 1
	if !ok || plan.At.Stage != failures.StageMidBroadcast {
		t.Errorf("plan for p2 = %+v, %v", plan, ok)
	}

	surv, err := parseCrashes("", "", "3,7", 7)
	if err != nil {
		t.Fatal(err)
	}
	if surv.Len() != 5 {
		t.Errorf("survivors Len = %d, want 5", surv.Len())
	}
	if surv.Crashed().Contains(2) || surv.Crashed().Contains(6) {
		t.Error("survivors scheduled to crash")
	}

	timed, err := parseCrashes("", "2:1ms;3:500us", "", 7)
	if err != nil {
		t.Fatal(err)
	}
	if timed.Len() != 2 || !timed.HasTimed() {
		t.Errorf("timed Len = %d, HasTimed = %v", timed.Len(), timed.HasTimed())
	}

	if got, err := parseCrashes("", "", "", 7); err != nil || got != nil {
		t.Errorf("empty spec = %v, %v", got, err)
	}
	for _, bad := range []string{"x:1:1:start", "1:y:1:start", "1:1:z:start", "1:1:1:bad", "1:1:1", "9:1:1:start"} {
		if _, err := parseCrashes(bad, "", "", 7); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
	for _, bad := range []string{"1", "x:1ms", "1:zzz", "9:1ms"} {
		if _, err := parseCrashes("", bad, "", 7); err == nil {
			t.Errorf("bad timed spec %q accepted", bad)
		}
	}
	if _, err := parseCrashes("", "", "zzz", 7); err == nil {
		t.Error("bad survivor accepted")
	}
}

func TestParseEdges(t *testing.T) {
	t.Parallel()
	ring, err := parseEdges("", 5)
	if err != nil || len(ring) != 5 {
		t.Fatalf("default ring = %v, %v", ring, err)
	}
	edges, err := parseEdges("1-2;2-3", 3)
	if err != nil || len(edges) != 2 || edges[0] != [2]int{0, 1} {
		t.Fatalf("edges = %v, %v", edges, err)
	}
	for _, bad := range []string{"1", "x-2", "1-y"} {
		if _, err := parseEdges(bad, 3); err == nil {
			t.Errorf("bad edge spec %q accepted", bad)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	t.Parallel()
	// The flagship scenario must succeed end to end.
	var sb strings.Builder
	err := run([]string{
		"-partition", "1/2-5/6-7",
		"-algo", "local-coin",
		"-proposals", "1111111",
		"-crash-all-except", "3",
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "decided 1") {
		t.Errorf("survivor did not decide:\n%s", sb.String())
	}
}

func TestRunEveryRegisteredBinaryProtocol(t *testing.T) {
	t.Parallel()
	// -protocol must drive every binary-workload registry entry, with a
	// non-uniform profile where the protocol has a network.
	for _, info := range allforone.Protocols() {
		if info.Proposals != allforone.ProposalsBinary {
			continue
		}
		args := []string{"-protocol", info.Name, "-proposals", "1111111", "-partition", "1-3/4-5/6-7"}
		if info.HasNetwork {
			args = append(args, "-profile", "skew:10us:5us")
		}
		if err := run(args, io.Discard); err != nil {
			t.Errorf("run(%s): %v", info.Name, err)
		}
	}
}

func TestRunOverlayFlag(t *testing.T) {
	t.Parallel()
	// Explicit overlay spec on gossip: one rumor source on a circulant
	// digraph; the output names the overlay at its effective degree.
	var sb strings.Builder
	err := run([]string{
		"-protocol", "gossip", "-n", "8",
		"-proposals", "10000000",
		"-overlay", "circulant:3",
	}, &sb)
	if err != nil {
		t.Fatalf("run(gossip, circulant:3): %v", err)
	}
	if !strings.Contains(sb.String(), "overlay   : circulant d=3") {
		t.Errorf("output misses the overlay line:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "agreement ✓") {
		t.Errorf("gossip run did not pass agreement:\n%s", sb.String())
	}

	// The values-workload half of the family: allconcur on a seeded random
	// overlay, full kind:degree:seed spec.
	sb.Reset()
	err = run([]string{
		"-protocol", "allconcur", "-n", "5",
		"-proposals", "a,b,c,d,e",
		"-overlay", "random:3:7",
	}, &sb)
	if err != nil {
		t.Fatalf("run(allconcur, random:3:7): %v", err)
	}
	if !strings.Contains(sb.String(), "overlay   : random d=3") {
		t.Errorf("output misses the overlay line:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "validity ✓") {
		t.Errorf("allconcur run did not pass validity:\n%s", sb.String())
	}
}

func TestRunListProtocols(t *testing.T) {
	t.Parallel()
	var sb strings.Builder
	if err := run([]string{"-list-protocols"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hybrid", "benor", "mpcoin", "shmem", "mm", "multivalued", "smr", "register", "gossip", "allconcur"} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("registry listing misses %q:\n%s", name, sb.String())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	t.Parallel()
	cases := [][]string{
		{"-partition", "not-a-partition"},
		{"-protocol", "raft"},
		{"-algo", "paxos"},
		{"-proposals", "123"},
		{"-crash", "nonsense"},
		{"-profile", "warp:1ms"},
		{"-protocol", "shmem", "-profile", "uniform:0:1ms", "-proposals", "1111111"},
		{"-protocol", "register"},
		{"-protocol", "gossip", "-overlay", "warp:3"},
		{"-protocol", "gossip", "-overlay", "debruijn:x"},
		{"-protocol", "gossip", "-overlay", "random:3:zzz"},
		{"-protocol", "gossip", "-overlay", "debruijn:3:1:9"},
		{"-protocol", "gossip", "-overlay", "circulant:99"},
		{"-profile", "uniform:5ms:0"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
