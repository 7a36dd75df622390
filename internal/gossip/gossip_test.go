package gossip

import (
	"errors"
	"reflect"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/overlay"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

func binProposals(n int, ones ...int) []model.Value {
	ps := make([]model.Value, n)
	for _, i := range ones {
		ps[i] = model.One
	}
	return ps
}

// baseConfig is a gossip run on spec under a 0–200µs band, whose transit
// bound sizes the round budget.
func baseConfig(n int, spec overlay.Spec, ones ...int) protocol.Scenario {
	return protocol.Scenario{
		Protocol: ProtocolName,
		Topology: protocol.Topology{N: n, Overlay: &spec},
		Workload: protocol.Workload{Binary: binProposals(n, ones...)},
		Seed:     42,
		Profile:  protocol.Uniform(0, 200*time.Microsecond),
	}
}

// runSim runs sc through the registry and returns gossip's raw result.
func runSim(sc protocol.Scenario) (*sim.Result, error) {
	out, err := protocol.Run(sc)
	if err != nil {
		return nil, err
	}
	return out.Raw.(*sim.Result), nil
}

// opaqueProfile is a delay policy protocol.TransitBound cannot bound: a
// profile behind a type it does not know.
type opaqueProfile struct{ protocol.NetworkProfile }

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
			cfg.Algorithm = mode.String()
			res, err := runSim(cfg)
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
		cfg.Algorithm = mode.String()
		res, err := runSim(cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		requireAllDecide(t, res, model.Zero)
	}
}

// TestSurvivesMinorityCrashes pins the agreement condition: with a
// circulant overlay of vertex connectivity 3, any 2 timed crashes leave
// the live subgraph strongly connected, so every survivor still learns
// the rumor (the victims report crashed). The registry suite's
// timed-minority cell crashes the same two processes but asserts only that
// every live process decides, not that the victims crashed or that the
// survivors decide 1.
func TestSurvivesMinorityCrashes(t *testing.T) {
	cfg := baseConfig(7, overlay.Spec{Kind: overlay.KindCirculant, Degree: 3}, 3)
	cfg.Faults = failures.NewSchedule(7)
	if err := errors.Join(cfg.Faults.SetTimed(0, 300*time.Microsecond), cfg.Faults.SetTimed(6, 300*time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	res, err := runSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p, pr := range res.Procs {
		victim := p == 0 || p == 6
		if victim && pr.Status != sim.StatusCrashed || !victim && (pr.Status != sim.StatusDecided || pr.Decision != model.One) {
			t.Fatalf("p%d: status %v decision %v, want crashed if a victim, else decided 1", p+1, pr.Status, pr.Decision)
		}
	}
}

// TestDeterministicReplay pins replay of a cell the registry suite's gossip
// row lacks: n = 64 on a random overlay with two rumor sources.
func TestDeterministicReplay(t *testing.T) {
	cfg := baseConfig(64, overlay.Spec{Kind: overlay.KindRandom, Degree: 4, Seed: 11}, 0, 63)
	a, errA := runSim(cfg)
	b, errB := runSim(cfg)
	if err := errors.Join(errA, errB); err != nil {
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
	res, err := runSim(cfg)
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
	cfg.Bounds.MaxRounds = 3 // far below the default, and below the diameter's needs
	res, err := runSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p, pr := range res.Procs {
		if pr.Round != 3 {
			t.Fatalf("proc %d ended at round %d, want the cap 3", p, pr.Round)
		}
	}

	cfg.Bounds.MaxRounds = 1 << 20 // a huge cap must keep the default, not inflate it
	res, err = runSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Topology.Overlay.Build(cfg.Topology.N, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	want := budgetRounds(g, ModePushPull, 200*time.Microsecond, true, false)
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
	transit := 200 * time.Microsecond // under roundLen, 250µs: one push transit fits in one extra tick

	if got := budgetRounds(g, ModePushPull, transit, false, false); got != legacy {
		t.Fatalf("unknown transit: budget %d, want legacy %d", got, legacy)
	}
	push := budgetRounds(g, ModePushPull, transit, true, false)
	if want := 2*d + 12; push != want {
		t.Fatalf("push&pull budget %d, want D·(1+⌈transit/roundLen⌉)+12 = %d", push, want)
	}
	if push >= legacy {
		t.Fatalf("derived budget %d not below legacy %d", push, legacy)
	}
	pull := budgetRounds(g, ModePull, transit, true, false)
	if want := 3*d + 12; pull != want {
		t.Fatalf("pull budget %d, want D·(1+⌈2·transit/roundLen⌉)+12 = %d", pull, want)
	}
	crashed := budgetRounds(g, ModePushPull, transit, true, true)
	if want := 4*d + 12; crashed != want {
		t.Fatalf("crashed budget %d, want 2D·hop+12 = %d", crashed, want)
	}
	if got := budgetRounds(g, ModePushPull, time.Hour, true, false); got != legacy {
		t.Fatalf("huge transit: budget %d, want the legacy cap %d", got, legacy)
	}
	if got := budgetRounds(g, ModePushPull, 0, true, false); got != d+12 {
		t.Fatalf("immediate delivery: budget %d, want D+12 = %d", got, d+12)
	}
}

// TestRunDerivesTransitBound pins, through Run, the transit bound the round
// budget is sized with: the profile's protocol.TransitBound when it has one;
// immediate delivery when there is no profile (push&pull budget D+12); and
// unknown when the profile has no bound (the legacy 4·D+24).
func TestRunDerivesTransitBound(t *testing.T) {
	spec := overlay.Spec{Kind: overlay.KindDeBruijn, Degree: 3}
	withTransit := baseConfig(81, spec, 1)
	g, err := spec.Build(withTransit.Topology.N, withTransit.Seed)
	if err != nil {
		t.Fatal(err)
	}
	d := g.DiameterBound()
	noPolicy := withTransit
	noPolicy.Profile = nil
	unknown := withTransit
	unknown.Profile = opaqueProfile{withTransit.Profile}
	for _, tc := range []struct {
		name string
		cfg  protocol.Scenario
		want int
	}{
		{"bounded profile", withTransit, 2*d + 12},
		{"no delay policy", noPolicy, d + 12},
		{"profile without a bound", unknown, 4*d + 24},
	} {
		res, err := runSim(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		requireAllDecide(t, res, model.One)
		if got := res.Procs[0].Round; got != tc.want {
			t.Errorf("%s: proc 0 ended at round %d, want the budget %d", tc.name, got, tc.want)
		}
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	good := baseConfig(8, overlay.Spec{Kind: overlay.KindDeBruijn, Degree: 2}, 1)
	cases := []struct {
		name string
		mut  func(*protocol.Scenario)
	}{
		{"too few procs", func(c *protocol.Scenario) {
			c.Topology = protocol.Topology{N: 1, Overlay: &overlay.Spec{Kind: overlay.KindCirculant}}
			c.Workload.Binary = c.Workload.Binary[:1]
		}},
		{"proposal count", func(c *protocol.Scenario) { c.Workload.Binary = c.Workload.Binary[:3] }},
		{"non-binary proposal", func(c *protocol.Scenario) {
			ps := append([]model.Value(nil), c.Workload.Binary...)
			ps[0] = 9
			c.Workload.Binary = ps
		}},
		{"unknown mode", func(c *protocol.Scenario) { c.Algorithm = "flood" }},
		{"step-point crashes", func(c *protocol.Scenario) {
			s := failures.NewSchedule(c.Topology.N)
			if err := s.Set(0, failures.Crash{At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}}); err != nil {
				t.Fatal(err)
			}
			c.Faults = s
		}},
		{"bad overlay", func(c *protocol.Scenario) { c.Topology.Overlay = &overlay.Spec{Kind: overlay.KindDeBruijn, Degree: 1} }},
		{"oversized crash schedule", func(c *protocol.Scenario) {
			s := failures.NewSchedule(64)
			if err := s.SetTimed(33, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			c.Faults = s
		}},
	}
	for _, tc := range cases {
		cfg := good
		tc.mut(&cfg)
		if _, err := protocol.Run(cfg); !errors.Is(err, protocol.ErrBadScenario) {
			t.Errorf("%s: err = %v, want ErrBadScenario", tc.name, err)
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

// TestReactorHotLine pins the reactor's layout: every field an invocation
// reads lies in its first 64 bytes, and its size is a multiple of 64, so a
// field added later cannot split that line without failing here. On a
// 32-bit platform, where pointers are half as wide, the reactor is 48 bytes:
// inside one line, though reactors side by side do not each start one.
func TestReactorHotLine(t *testing.T) {
	var rx reactor
	hot := map[string][2]uintptr{
		"h":        {unsafe.Offsetof(rx.h), unsafe.Sizeof(rx.h)},
		"run":      {unsafe.Offsetof(rx.run), unsafe.Sizeof(rx.run)},
		"tickAt":   {unsafe.Offsetof(rx.tickAt), unsafe.Sizeof(rx.tickAt)},
		"id":       {unsafe.Offsetof(rx.id), unsafe.Sizeof(rx.id)},
		"round":    {unsafe.Offsetof(rx.round), unsafe.Sizeof(rx.round)},
		"infected": {unsafe.Offsetof(rx.infected), unsafe.Sizeof(rx.infected)},
		"started":  {unsafe.Offsetof(rx.started), unsafe.Sizeof(rx.started)},
		"done":     {unsafe.Offsetof(rx.done), unsafe.Sizeof(rx.done)},
	}
	for name, f := range hot {
		if f[0]+f[1] > 64 {
			t.Errorf("hot field %s ends at byte %d, past the first cache line", name, f[0]+f[1])
		}
	}
	if size := unsafe.Sizeof(rx); strconv.IntSize == 32 {
		if size != 48 {
			t.Errorf("a reactor is %d bytes on a 32-bit platform; want 48", size)
		}
	} else if size%64 != 0 {
		t.Errorf("a reactor is %d bytes, not a multiple of 64", size)
	}
}
