package protocol

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"allforone/internal/model"
	"allforone/internal/netsim"
)

// NetworkProfile is a composable message-delay policy. Profiles are
// declarative: Compile turns one into the netsim option that installs it on
// a concrete topology (n processes, optionally a cluster partition) —
// Uniform the network's own band, every other profile a clock-aware delay
// function. Every profile is deterministic — same scenario, same delivery
// schedule, bit for bit.
type NetworkProfile interface {
	// ProfileName names the profile for listings and error messages.
	ProfileName() string
	// Compile resolves the profile against a topology. part is nil for
	// protocols without a cluster partition; profiles that need one must
	// return an error. A zero returned option (netsim.Option{}) means immediate delivery.
	Compile(n int, part *model.Partition) (netsim.Option, error)
}

// ---------------------------------------------------------------------------
// uniform

type uniformProfile struct {
	min, max time.Duration
}

// Uniform draws every message's transit time uniformly from [min, max]. It
// compiles to the network's own band (netsim.WithUniformDelay), whose known
// minimum lets a sharded run keep each send window open for min of virtual
// time. Uniform(0, 0) means immediate delivery; a negative min or a max
// below min is rejected when the scenario compiles.
func Uniform(min, max time.Duration) NetworkProfile {
	return &uniformProfile{min: min, max: max}
}

func (u *uniformProfile) ProfileName() string {
	return fmt.Sprintf("uniform[%v,%v]", u.min, u.max)
}

func (u *uniformProfile) Compile(n int, part *model.Partition) (netsim.Option, error) {
	if u.min < 0 || u.max < u.min {
		return netsim.Option{}, fmt.Errorf("bad band [%v,%v]", u.min, u.max)
	}
	if u.max <= 0 {
		return netsim.Option{}, nil
	}
	return netsim.WithUniformDelay(u.min, u.max), nil
}

// ---------------------------------------------------------------------------
// explicit per-link skew matrix

type skewMatrixProfile struct {
	delay [][]time.Duration
}

// SkewMatrix fixes every link's transit time explicitly: delay[i][j] is
// the (possibly asymmetric) delay of messages from process i to process j.
// The policy is fully deterministic — no random jitter — which makes it
// the profile of choice for adversarial worst-case delivery orders.
func SkewMatrix(delay [][]time.Duration) NetworkProfile {
	return &skewMatrixProfile{delay: delay}
}

// SkewMatrixEntries returns the delay table of a SkewMatrix profile and
// true, or nil and false for any other profile (including nil). The
// returned slice is the profile's own table — callers that mutate it must
// clone first (netsim.DelayMatrix.Clone); the adversarial schedule search
// uses it to read the incumbent schedule before perturbing a copy.
func SkewMatrixEntries(p NetworkProfile) ([][]time.Duration, bool) {
	s, ok := p.(*skewMatrixProfile)
	if !ok {
		return nil, false
	}
	return s.delay, true
}

func (s *skewMatrixProfile) ProfileName() string {
	return fmt.Sprintf("skew-matrix[%dx%d]", len(s.delay), len(s.delay))
}

func (s *skewMatrixProfile) Compile(n int, part *model.Partition) (netsim.Option, error) {
	// Structural validation is netsim.DelayMatrix's: a bad matrix is
	// rejected here — Scenario build time — wrapping netsim.ErrBadMatrix,
	// never at first message use. The compiled form is a flat slice
	// indexed src*n+dst: one load per lookup on the delivery hot path.
	flat, err := netsim.DelayMatrix(s.delay).Flatten(n)
	if err != nil {
		return netsim.Option{}, err
	}
	return netsim.WithTimedDelayFn(func(_ time.Duration, _ *rand.Rand, m netsim.Message) time.Duration {
		return flat[int(m.From)*n+int(m.To)]
	}), nil
}

// DistanceSkew is the parameterized per-link skew matrix: the delay from
// process i to process j is base + step·|i−j|. It models a line of
// increasingly distant peers, is fully deterministic, and — unlike
// SkewMatrix — needs no explicit n×n table, so the CLI can spell it.
func DistanceSkew(base, step time.Duration) NetworkProfile {
	return &distanceSkewProfile{base: base, step: step}
}

type distanceSkewProfile struct {
	base, step time.Duration
}

func (d *distanceSkewProfile) ProfileName() string {
	return fmt.Sprintf("skew[base=%v,step=%v]", d.base, d.step)
}

func (d *distanceSkewProfile) Compile(n int, part *model.Partition) (netsim.Option, error) {
	if d.base < 0 || d.step < 0 {
		return netsim.Option{}, fmt.Errorf("negative base or step")
	}
	base, step := d.base, d.step
	return netsim.WithTimedDelayFn(func(_ time.Duration, _ *rand.Rand, m netsim.Message) time.Duration {
		dist := int(m.From) - int(m.To)
		if dist < 0 {
			dist = -dist
		}
		return base + step*time.Duration(dist)
	}), nil
}

// ---------------------------------------------------------------------------
// asymmetric cluster WAN

type clusterWANProfile struct {
	intraMax    time.Duration
	interBase   time.Duration
	interMatrix [][]time.Duration
	jitter      time.Duration
}

// ClusterWAN models clusters as datacenters on a WAN: messages inside a
// cluster take a uniform draw from [0, intraMax]; messages between
// clusters pay interBase plus a uniform draw from [0, jitter]. It needs a
// partition topology. Use ClusterWANMatrix for asymmetric per-pair bases.
func ClusterWAN(intraMax, interBase, jitter time.Duration) NetworkProfile {
	return &clusterWANProfile{intraMax: intraMax, interBase: interBase, jitter: jitter}
}

// ClusterWANMatrix is ClusterWAN with an explicit (possibly asymmetric)
// m×m base-delay matrix: inter[a][b] is the base one-way delay from
// cluster a to cluster b.
func ClusterWANMatrix(intraMax time.Duration, inter [][]time.Duration, jitter time.Duration) NetworkProfile {
	return &clusterWANProfile{intraMax: intraMax, interMatrix: inter, jitter: jitter}
}

func (c *clusterWANProfile) ProfileName() string {
	if c.interMatrix != nil {
		return fmt.Sprintf("cluster-wan[intra=%v,matrix,jitter=%v]", c.intraMax, c.jitter)
	}
	return fmt.Sprintf("cluster-wan[intra=%v,inter=%v,jitter=%v]", c.intraMax, c.interBase, c.jitter)
}

func (c *clusterWANProfile) Compile(n int, part *model.Partition) (netsim.Option, error) {
	if part == nil {
		return netsim.Option{}, fmt.Errorf("needs a cluster partition topology")
	}
	if c.intraMax < 0 || c.interBase < 0 || c.jitter < 0 {
		return netsim.Option{}, fmt.Errorf("negative delay parameter")
	}
	m := part.M()
	if c.interMatrix != nil {
		if len(c.interMatrix) != m {
			return netsim.Option{}, fmt.Errorf("inter matrix is %dx?, partition has %d clusters", len(c.interMatrix), m)
		}
		for a, row := range c.interMatrix {
			if len(row) != m {
				return netsim.Option{}, fmt.Errorf("inter matrix row %d has %d entries, want %d", a, len(row), m)
			}
			for b, d := range row {
				if d < 0 {
					return netsim.Option{}, fmt.Errorf("negative inter delay at [%d][%d]", a, b)
				}
			}
		}
	}
	prof := *c
	return netsim.WithTimedDelayFn(func(_ time.Duration, rng *rand.Rand, msg netsim.Message) time.Duration {
		ca, cb := part.ClusterOf(msg.From), part.ClusterOf(msg.To)
		if ca == cb {
			if prof.intraMax <= 0 {
				return 0
			}
			return time.Duration(rng.Int64N(int64(prof.intraMax) + 1))
		}
		d := prof.interBase
		if prof.interMatrix != nil {
			d = prof.interMatrix[ca][cb]
		}
		if prof.jitter > 0 {
			d += time.Duration(rng.Int64N(int64(prof.jitter) + 1))
		}
		return d
	}), nil
}

// ---------------------------------------------------------------------------
// partition that heals at an instant

type healingPartitionProfile struct {
	isolated []model.ProcID
	healAt   time.Duration
	min, max time.Duration
}

// HealingPartition cuts the network between the isolated set and everyone
// else until the run clock reaches healAt (a virtual instant — exact and
// deterministic). Messages crossing the cut are not lost: they
// are held and delivered once the partition heals, honoring the model's
// reliable-channel guarantee (transit arbitrary but finite). All traffic
// pays a uniform [min, max] base delay. A nil isolated set isolates the
// partition topology's first cluster.
func HealingPartition(isolated []model.ProcID, healAt, min, max time.Duration) NetworkProfile {
	return &healingPartitionProfile{isolated: isolated, healAt: healAt, min: min, max: max}
}

func (h *healingPartitionProfile) ProfileName() string {
	return fmt.Sprintf("healing-partition[heal=%v,base=[%v,%v]]", h.healAt, h.min, h.max)
}

func (h *healingPartitionProfile) Compile(n int, part *model.Partition) (netsim.Option, error) {
	if h.healAt < 0 || h.min < 0 || (h.max > 0 && h.max < h.min) {
		return netsim.Option{}, fmt.Errorf("bad heal instant or base band")
	}
	isolated := h.isolated
	if isolated == nil {
		if part == nil {
			return netsim.Option{}, fmt.Errorf("nil isolated set needs a cluster partition topology")
		}
		isolated = part.Members(0)
	}
	cut := make([]bool, n)
	for _, p := range isolated {
		if int(p) < 0 || int(p) >= n {
			return netsim.Option{}, fmt.Errorf("isolated process %v out of range [0,%d)", p, n)
		}
		cut[p] = true
	}
	healAt, min, span := h.healAt, h.min, int64(h.max-h.min)
	return netsim.WithTimedDelayFn(func(now time.Duration, rng *rand.Rand, m netsim.Message) time.Duration {
		base := min
		if h.max > 0 && span > 0 {
			base = min + time.Duration(rng.Int64N(span+1))
		}
		if cut[m.From] != cut[m.To] && now < healAt {
			// Crossing the cut pre-heal: hold until the heal instant, then
			// transit normally.
			return (healAt - now) + base
		}
		return base
	}), nil
}

// ---------------------------------------------------------------------------
// transit bounds

// TransitBound returns an upper bound on any single message's transit
// delay under profile p for an n-process topology, and whether the bound
// is known. A nil profile is immediate delivery (bound 0). Protocols with
// provable round budgets (gossip's push-phase analysis) use the bound to
// size the budget; an unknown bound — a profile type this function does
// not recognize — makes them fall back to their conservative legacy
// budget, so unknown is always safe to return.
func TransitBound(p NetworkProfile, n int) (time.Duration, bool) {
	switch prof := p.(type) {
	case nil:
		return 0, true
	case *uniformProfile:
		if prof.max <= 0 {
			return 0, true
		}
		return prof.max, true
	case *skewMatrixProfile:
		var max time.Duration
		for _, row := range prof.delay {
			for _, d := range row {
				if d > max {
					max = d
				}
			}
		}
		return max, true
	case *distanceSkewProfile:
		return prof.base + prof.step*time.Duration(n-1), true
	case *clusterWANProfile:
		max := prof.intraMax
		inter := prof.interBase
		for _, row := range prof.interMatrix {
			for _, d := range row {
				if d > inter {
					inter = d
				}
			}
		}
		if b := inter + prof.jitter; b > max {
			max = b
		}
		return max, true
	case *healingPartitionProfile:
		// A message sent the instant before the heal waits out the whole
		// cut, then pays the base band.
		base := prof.min
		if prof.max > base {
			base = prof.max
		}
		return prof.healAt + base, true
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// CLI spec parsing

// ParseProfile resolves a compact profile spec, as accepted by the CLIs:
//
//	""            — immediate delivery (nil profile)
//	uniform:MIN:MAX
//	skew:BASE:STEP            (DistanceSkew)
//	wan:INTRA:INTER:JITTER    (ClusterWAN)
//	heal:AT:MIN:MAX           (HealingPartition of the first cluster)
//
// Durations use Go syntax (e.g. 500us, 2ms).
func ParseProfile(spec string) (NetworkProfile, error) {
	if spec == "" || spec == "none" || spec == "immediate" {
		return nil, nil
	}
	parts := strings.Split(spec, ":")
	durs := make([]time.Duration, 0, len(parts)-1)
	for _, raw := range parts[1:] {
		d, err := time.ParseDuration(strings.TrimSpace(raw))
		if err != nil {
			return nil, fmt.Errorf("protocol: profile spec %q: %w", spec, err)
		}
		durs = append(durs, d)
	}
	want := func(k int) error {
		if len(durs) != k {
			return fmt.Errorf("protocol: profile spec %q: want %d durations, got %d", spec, k, len(durs))
		}
		return nil
	}
	switch parts[0] {
	case "uniform":
		if err := want(2); err != nil {
			return nil, err
		}
		return Uniform(durs[0], durs[1]), nil
	case "skew":
		if err := want(2); err != nil {
			return nil, err
		}
		return DistanceSkew(durs[0], durs[1]), nil
	case "wan":
		if err := want(3); err != nil {
			return nil, err
		}
		return ClusterWAN(durs[0], durs[1], durs[2]), nil
	case "heal":
		if err := want(3); err != nil {
			return nil, err
		}
		return HealingPartition(nil, durs[0], durs[1], durs[2]), nil
	}
	return nil, fmt.Errorf("protocol: unknown profile kind %q (want uniform, skew, wan, or heal)", parts[0])
}
