package protocol_test

// The protocol package itself is implementation-free; importing
// internal/protocols populates the registry with the real entries for the
// registry and profile tests below.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/protocol"
	_ "allforone/internal/protocols"
	"allforone/internal/vclock"
)

func TestRegistryComplete(t *testing.T) {
	t.Parallel()
	want := []string{"allconcur", "benor", "gossip", "hybrid", "mm", "mpcoin", "multivalued", "register", "shmem", "smr"}
	got := protocol.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, info := range protocol.Infos() {
		if info.Description == "" {
			t.Errorf("%s: empty description", info.Name)
		}
		if info.Proposals < protocol.ProposalsBinary || info.Proposals > protocol.ProposalsScripts {
			t.Errorf("%s: bad proposal kind %v", info.Name, info.Proposals)
		}
	}
}

func TestRegisterRejectsDuplicatesAndNil(t *testing.T) {
	t.Parallel()
	run := func(protocol.Scenario) (*protocol.Outcome, error) { return nil, nil }
	if err := protocol.Register(protocol.Protocol{Info: protocol.Info{Name: "no-run"}}); err == nil {
		t.Error("nil adapter accepted")
	}
	if err := protocol.Register(protocol.Protocol{Run: run}); err == nil {
		t.Error("empty name accepted")
	}
	dup := protocol.Protocol{Info: protocol.Info{Name: "hybrid"}, Run: run}
	if err := protocol.Register(dup); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate registration: err = %v", err)
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	t.Parallel()
	_, err := protocol.Run(protocol.Scenario{Protocol: "nope", Topology: protocol.Topology{N: 3}})
	if err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Fatalf("err = %v, want unknown-protocol listing the registry", err)
	}
}

func TestTopologyProcs(t *testing.T) {
	t.Parallel()
	part := model.Fig1Left()
	if n, err := (protocol.Topology{Partition: part}).Procs(); err != nil || n != 7 {
		t.Errorf("partition topology = %d, %v", n, err)
	}
	if n, err := (protocol.Topology{Partition: part, N: 7}).Procs(); err != nil || n != 7 {
		t.Errorf("consistent N = %d, %v", n, err)
	}
	if _, err := (protocol.Topology{Partition: part, N: 5}).Procs(); err == nil {
		t.Error("inconsistent N accepted")
	}
	if n, err := (protocol.Topology{N: 4}).Procs(); err != nil || n != 4 {
		t.Errorf("bare N = %d, %v", n, err)
	}
	if _, err := (protocol.Topology{}).Procs(); err == nil {
		t.Error("empty topology accepted")
	}
}

// compile resolves a profile over n processes with an optional partition.
func compile(t testing.TB, p protocol.NetworkProfile, n int, part *model.Partition) netsim.Option {
	t.Helper()
	opt, err := p.Compile(n, part)
	if err != nil {
		t.Fatalf("%s: %v", p.ProfileName(), err)
	}
	return opt
}

// delayOf sends one message from → to at virtual instant at, on an n-process
// network configured by opt (the zero Option: immediate delivery), and
// returns its transit delay.
func delayOf(t testing.TB, opt netsim.Option, n int, at time.Duration, from, to model.ProcID) time.Duration {
	t.Helper()
	s := vclock.New()
	nw, err := netsim.New(n, netsim.WithScheduler(s), opt)
	if err != nil {
		t.Fatal(err)
	}
	arrived := vclock.Time(-1)
	var rx *vclock.Proc
	rx = s.SpawnHandler("rx", func(aborted bool) {
		if _, ok, _ := nw.ReceiveNow(to); ok {
			arrived = s.Now()
		}
		if aborted || arrived >= 0 {
			rx.Finish()
		}
	})
	nw.Bind(to, rx)
	s.At(vclock.Time(at), func() { nw.Send(from, to, nil) })
	s.Run()
	if arrived < 0 {
		t.Fatalf("message %v→%v sent at %v never arrived", from, to, at)
	}
	return time.Duration(arrived) - at
}

func TestProfileCompileErrors(t *testing.T) {
	t.Parallel()
	part := model.Fig1Left()
	cases := []struct {
		name string
		p    protocol.NetworkProfile
		part *model.Partition
	}{
		{"skew matrix wrong size", protocol.SkewMatrix(make([][]time.Duration, 3)), part},
		{"skew matrix ragged", protocol.SkewMatrix([][]time.Duration{{0}, {0}, {0}}), nil},
		{"wan without partition", protocol.ClusterWAN(0, time.Millisecond, 0), nil},
		{"wan matrix wrong size", protocol.ClusterWANMatrix(0, [][]time.Duration{{0}}, 0), part},
		{"heal without partition or set", protocol.HealingPartition(nil, time.Millisecond, 0, 0), nil},
		{"heal out-of-range proc", protocol.HealingPartition([]model.ProcID{9}, time.Millisecond, 0, 0), part},
		{"negative distance skew", protocol.DistanceSkew(-time.Millisecond, 0), part},
	}
	for _, tc := range cases {
		n := 7
		if tc.name == "skew matrix ragged" {
			n = 3
		}
		if _, err := tc.p.Compile(n, tc.part); err == nil {
			t.Errorf("%s: compiled", tc.name)
		}
	}
}

func TestDistanceSkewDeterministic(t *testing.T) {
	t.Parallel()
	opt := compile(t, protocol.DistanceSkew(100*time.Microsecond, 50*time.Microsecond), 5, nil)
	if d := delayOf(t, opt, 5, 0, 1, 4); d != 250*time.Microsecond {
		t.Errorf("delay(1→4) = %v, want 250µs", d)
	}
	if d := delayOf(t, opt, 5, 0, 4, 4); d != 100*time.Microsecond {
		t.Errorf("delay(4→4) = %v, want base", d)
	}
}

func TestHealingPartitionHoldsCrossTraffic(t *testing.T) {
	t.Parallel()
	part := model.Fig1Left() // P[0]={0,1,2}
	opt := compile(t, protocol.HealingPartition(nil, time.Millisecond, 0, 0), 7, part)
	if d := delayOf(t, opt, 7, 200*time.Microsecond, 0, 5); d != 800*time.Microsecond {
		t.Errorf("pre-heal cross delay = %v, want 800µs", d)
	}
	if d := delayOf(t, opt, 7, 200*time.Microsecond, 0, 1); d != 0 {
		t.Errorf("pre-heal intra delay = %v, want 0", d)
	}
	if d := delayOf(t, opt, 7, 2*time.Millisecond, 0, 5); d != 0 {
		t.Errorf("post-heal cross delay = %v, want 0", d)
	}
}

// TestUniformCompilesToBand: Uniform installs the network's own band — a
// one-point band delivers at exactly its delay — and Uniform(0, 0) compiles
// to no option at all (immediate delivery).
func TestUniformCompilesToBand(t *testing.T) {
	t.Parallel()
	if opt := compile(t, protocol.Uniform(0, 0), 3, nil); !opt.IsZero() {
		t.Error("Uniform(0, 0) compiled to an option, want none (immediate delivery)")
	}
	opt := compile(t, protocol.Uniform(70*time.Microsecond, 70*time.Microsecond), 3, nil)
	if d := delayOf(t, opt, 3, 0, 0, 2); d != 70*time.Microsecond {
		t.Errorf("delay under Uniform(70µs, 70µs) = %v, want 70µs", d)
	}
}

func TestParseProfile(t *testing.T) {
	t.Parallel()
	if p, err := protocol.ParseProfile(""); err != nil || p != nil {
		t.Errorf("empty spec = %v, %v", p, err)
	}
	part := model.Fig1Left()
	for _, tc := range []struct {
		spec            string
		parses, compile bool
	}{
		{"uniform:0s:2ms", true, true},
		{"uniform:0s:0s", true, true}, // immediate delivery
		{"skew:100us:50us", true, true},
		{"wan:50us:1ms:100us", true, true},
		{"heal:2ms:0s:200us", true, true},
		{"uniform:5ms:0", true, false}, // inverted band: not "immediate"
		{"uniform:2ms:1ms", true, false},
		{"uniform:-1ms:2ms", true, false},
		{"warp:1ms", false, false},
		{"uniform:1ms", false, false},
		{"uniform:x:y", false, false},
		{"skew:1ms:2ms:3ms", false, false},
	} {
		p, err := protocol.ParseProfile(tc.spec)
		if (err == nil) != tc.parses || (tc.parses && p == nil) {
			t.Errorf("ParseProfile(%q) = %v, %v; want parses = %v", tc.spec, p, err, tc.parses)
			continue
		}
		if !tc.parses {
			continue
		}
		if _, err := p.Compile(part.N(), part); (err == nil) != tc.compile {
			t.Errorf("%q: Compile err = %v; want compiles = %v", tc.spec, err, tc.compile)
		}
	}
}

// TestBadMatrixRejectedAtBuildTime: a structurally invalid skew matrix is
// rejected when the Scenario compiles — before any process spawns or any
// message consults the table — and the error carries BOTH sentinels:
// ErrBadScenario (the layer) and netsim.ErrBadMatrix (the cause), in the
// driver.ErrBadCrashes style.
func TestBadMatrixRejectedAtBuildTime(t *testing.T) {
	t.Parallel()
	part := model.Fig1Left()
	binary := make([]model.Value, part.N())
	cases := []struct {
		name   string
		matrix [][]time.Duration
	}{
		{"wrong side", make([][]time.Duration, 3)},
		{"ragged rows", func() [][]time.Duration {
			m := netsim.NewDelayMatrix(part.N())
			m[2] = m[2][:3]
			return m
		}()},
		{"negative entry", func() [][]time.Duration {
			m := netsim.NewDelayMatrix(part.N())
			m[1][4] = -time.Microsecond
			return m
		}()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, err := protocol.Run(protocol.Scenario{
				Protocol: "hybrid",
				Topology: protocol.Topology{Partition: part},
				Workload: protocol.Workload{Binary: binary},
				Profile:  protocol.SkewMatrix(tc.matrix),
				Seed:     1,
			})
			if err == nil {
				t.Fatalf("bad matrix accepted: %+v", out)
			}
			if !errors.Is(err, protocol.ErrBadScenario) {
				t.Errorf("error lacks ErrBadScenario: %v", err)
			}
			if !errors.Is(err, netsim.ErrBadMatrix) {
				t.Errorf("error lacks netsim.ErrBadMatrix: %v", err)
			}
		})
	}
}

// TestSkewMatrixFlatLookup: the compiled skew profile must read the same
// asymmetric per-link delays as the source table (flat src*n+dst layout).
func TestSkewMatrixFlatLookup(t *testing.T) {
	t.Parallel()
	const n = 5
	m := netsim.NewDelayMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m[i][j] = time.Duration(100*i+j) * time.Microsecond
		}
	}
	opt := compile(t, protocol.SkewMatrix(m), n, nil)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := delayOf(t, opt, n, 0, model.ProcID(i), model.ProcID(j))
			if got != m[i][j] {
				t.Fatalf("delay(%d→%d) = %v, want %v", i, j, got, m[i][j])
			}
		}
	}
}
