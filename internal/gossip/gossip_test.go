package gossip

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/overlay"
	"allforone/internal/sim"
)

func binProposals(n int, ones ...int) []model.Value {
	ps := make([]model.Value, n)
	for _, i := range ones {
		ps[i] = model.One
	}
	return ps
}

func baseConfig(n int, spec overlay.Spec, ones ...int) Config {
	return Config{
		N:         n,
		Proposals: binProposals(n, ones...),
		Spec:      spec,
		Seed:      42,
		MinDelay:  0,
		MaxDelay:  200 * time.Microsecond,
	}
}

func requireAllDecide(t *testing.T, res *sim.Result, want model.Value) {
	t.Helper()
	for p, pr := range res.Procs {
		if pr.Status != sim.StatusDecided {
			t.Fatalf("proc %d: status %v, want decided (round %d)", p, pr.Status, pr.Round)
		}
		if pr.Decision != want {
			t.Fatalf("proc %d decided %v, want %v", p, pr.Decision, want)
		}
	}
}

func TestAllModesDisseminateOnAllFamilies(t *testing.T) {
	specs := []overlay.Spec{
		{Kind: overlay.KindDeBruijn, Degree: 3},
		{Kind: overlay.KindCirculant, Degree: 3},
		{Kind: overlay.KindRandom, Degree: 3, Seed: 7},
	}
	for _, spec := range specs {
		for _, mode := range []Mode{ModePushPull, ModePush, ModePull} {
			cfg := baseConfig(33, spec, 5)
			cfg.Mode = mode
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", spec.Kind, mode, err)
			}
			requireAllDecide(t, res, model.One)
			if res.Metrics.MsgsSent == 0 {
				t.Fatalf("%v/%v: no messages sent", spec.Kind, mode)
			}
		}
	}
}

func TestUnanimousZeroDecidesZero(t *testing.T) {
	for _, mode := range []Mode{ModePushPull, ModePush, ModePull} {
		cfg := baseConfig(17, overlay.Spec{Kind: overlay.KindDeBruijn, Degree: 2})
		cfg.Mode = mode
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		requireAllDecide(t, res, model.Zero)
	}
}

// TestSurvivesMinorityCrashes pins the agreement condition: with a
// circulant overlay of vertex connectivity 3, any 2 timed crashes leave
// the live subgraph strongly connected, so every survivor still learns
// the rumor (the victims report crashed).
func TestSurvivesMinorityCrashes(t *testing.T) {
	n := 7
	crashes := failures.NewSchedule(n)
	for _, p := range []model.ProcID{0, 6} {
		if err := crashes.SetTimed(p, 300*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	cfg := baseConfig(n, overlay.Spec{Kind: overlay.KindCirculant, Degree: 3}, 3)
	cfg.Crashes = crashes
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p, pr := range res.Procs {
		if p == 0 || p == 6 {
			if pr.Status != sim.StatusCrashed {
				t.Fatalf("victim %d: status %v, want crashed", p, pr.Status)
			}
			continue
		}
		if pr.Status != sim.StatusDecided || pr.Decision != model.One {
			t.Fatalf("survivor %d: status %v decision %v, want decided 1", p, pr.Status, pr.Decision)
		}
	}
}

// TestDeterministicReplay: same Config, bit-identical Result.
func TestDeterministicReplay(t *testing.T) {
	cfg := baseConfig(64, overlay.Spec{Kind: overlay.KindRandom, Degree: 4, Seed: 11}, 0, 63)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestMessageCountStaysSubQuadratic pins the point of the protocol: the
// per-round message bill is Θ(n·d), not Θ(n²). Push&pull sends at most
// n·d pushes + n·d pulls + n·d pull-answers per round.
func TestMessageCountStaysSubQuadratic(t *testing.T) {
	n, d := 128, 4
	cfg := baseConfig(n, overlay.Spec{Kind: overlay.KindDeBruijn, Degree: d}, 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireAllDecide(t, res, model.One)
	rounds := res.Procs[0].Round
	perRound := float64(res.Metrics.MsgsSent) / float64(rounds)
	if limit := 3 * float64(n*d); perRound > limit {
		t.Fatalf("msgs/round = %.1f exceeds 3·n·d = %.0f", perRound, limit)
	}
	if quadratic := float64(n * n); perRound >= quadratic {
		t.Fatalf("msgs/round = %.1f is not sub-quadratic (n² = %.0f)", perRound, quadratic)
	}
}

// TestRoundsCapReplacesDefault: a Rounds value below the overlay-derived
// default replaces it; a larger one does not inflate the budget.
func TestRoundsCapReplacesDefault(t *testing.T) {
	cfg := baseConfig(33, overlay.Spec{Kind: overlay.KindDeBruijn, Degree: 2}, 2)
	cfg.Rounds = 3 // far below the default, and below the diameter's needs
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p, pr := range res.Procs {
		if pr.Round != 3 {
			t.Fatalf("proc %d ended at round %d, want the cap 3", p, pr.Round)
		}
	}

	cfg.Rounds = 1 << 20 // a huge cap must keep the default, not inflate it
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Spec.Build(cfg.N, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	want := budgetRounds(g, cfg.Mode, cfg.MaxDelay, true, DefaultRoundLen, false)
	if res.Procs[0].Round != want {
		t.Fatalf("proc 0 ended at round %d, want the default %d", res.Procs[0].Round, want)
	}
}

// TestBudgetRoundsDerivation pins the push-phase budget analysis: a known
// transit bound shrinks the budget below the legacy 4·D+24, pull mode
// pays two transits per hop, a crash schedule doubles the diameter term,
// and an unknown bound (or an absurd transit) falls back to — and never
// exceeds — the legacy figure.
func TestBudgetRoundsDerivation(t *testing.T) {
	g, err := overlay.Spec{Kind: overlay.KindDeBruijn, Degree: 3}.Build(81, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := g.DiameterBound()
	legacy := legacyRounds(g)
	transit := 200 * time.Microsecond
	rl := DefaultRoundLen // 250µs: one push transit fits in one extra tick

	if got := budgetRounds(g, ModePushPull, transit, false, rl, false); got != legacy {
		t.Fatalf("unknown transit: budget %d, want legacy %d", got, legacy)
	}
	push := budgetRounds(g, ModePushPull, transit, true, rl, false)
	if want := 2*d + 12; push != want {
		t.Fatalf("push&pull budget %d, want D·(1+⌈transit/roundLen⌉)+12 = %d", push, want)
	}
	if push >= legacy {
		t.Fatalf("derived budget %d not below legacy %d", push, legacy)
	}
	pull := budgetRounds(g, ModePull, transit, true, rl, false)
	if want := 3*d + 12; pull != want {
		t.Fatalf("pull budget %d, want D·(1+⌈2·transit/roundLen⌉)+12 = %d", pull, want)
	}
	crashed := budgetRounds(g, ModePushPull, transit, true, rl, true)
	if want := 4*d + 12; crashed != want {
		t.Fatalf("crashed budget %d, want 2D·hop+12 = %d", crashed, want)
	}
	if got := budgetRounds(g, ModePushPull, time.Hour, true, rl, false); got != legacy {
		t.Fatalf("huge transit: budget %d, want the legacy cap %d", got, legacy)
	}
	if got := budgetRounds(g, ModePushPull, 0, true, rl, false); got != d+12 {
		t.Fatalf("immediate delivery: budget %d, want D+12 = %d", got, d+12)
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	good := baseConfig(8, overlay.Spec{Kind: overlay.KindDeBruijn, Degree: 2}, 1)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"too few procs", func(c *Config) { c.N = 1; c.Proposals = c.Proposals[:1] }},
		{"proposal count", func(c *Config) { c.Proposals = c.Proposals[:3] }},
		{"non-binary proposal", func(c *Config) {
			ps := append([]model.Value(nil), c.Proposals...)
			ps[0] = 9
			c.Proposals = ps
		}},
		{"unknown mode", func(c *Config) { c.Mode = Mode(42) }},
		{"step-point crashes", func(c *Config) {
			s := failures.NewSchedule(c.N)
			if err := s.Set(0, failures.Crash{At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}}); err != nil {
				t.Fatal(err)
			}
			c.Crashes = s
		}},
		{"bad overlay", func(c *Config) { c.Spec = overlay.Spec{Kind: overlay.KindDeBruijn, Degree: 1} }},
		{"oversized crash schedule", func(c *Config) {
			s := failures.NewSchedule(64)
			if err := s.SetTimed(33, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			c.Crashes = s
		}},
	}
	for _, tc := range cases {
		cfg := good
		tc.mut(&cfg)
		if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", tc.name, err)
		}
	}
}

func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModePushPull, ModePush, ModePull} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if m, err := ParseMode(""); err != nil || m != ModePushPull {
		t.Fatalf("empty mode = %v, %v, want pushpull", m, err)
	}
	if _, err := ParseMode("flood"); err == nil {
		t.Fatal("ParseMode(flood) succeeded")
	}
}
