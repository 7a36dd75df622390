package allforone

// The replicated log's Outcomes of record: a hash per cell, taken on the
// commit before smr's coroutine body was replaced by a reactor. Every crash
// check, cluster Propose, broadcast, counter bump and message consumption
// must stay at its sequence position — the network's RNG stream and the
// scheduler's (at,seq) order ride on them — so any rewrite of the slot,
// instance and round loops must reproduce these hashes. Each cell is also
// checked for log agreement, validity and a conclusive verdict.

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"allforone/internal/smr"
)

// smrGolden maps "<topology>/<profile>/<pattern>" to the FNV-64a of the
// run's JSON Outcome with the storage counters zeroed.
var smrGolden = map[string]uint64{
	"fig1-left/uniform/crash-free":                0xdeb272f6331a6c62,
	"fig1-left/uniform/max-rounds-1":              0x50a3972d61047e7b,
	"fig1-left/uniform/max-steps-1":               0x872ed3a24a49fa2b,
	"fig1-left/uniform/max-steps-mid":             0x77e84ee5a4828439,
	"fig1-left/uniform/max-virtual-time":          0xbdeb717486352f07,
	"fig1-left/uniform/timed-minority":            0x46a2e2106364f579,
	"fig1-left/uniform/staged-minority":           0x2e9796d54018389b,
	"fig1-left/uniform/staged-mid-log":            0x7b59256702bc1689,
	"fig1-left/uniform/all-but-one-of-largest":    0x497ac1e9285d5025,
	"fig1-left/skew/crash-free":                   0xefdc8cdcea02b802,
	"fig1-left/skew/max-rounds-1":                 0x346f48e16f84e357,
	"fig1-left/skew/max-steps-1":                  0x7ea6cc0f3c021ee5,
	"fig1-left/skew/max-steps-mid":                0x431cc5f87775fd64,
	"fig1-left/skew/max-virtual-time":             0xaaba258690f59b19,
	"fig1-left/skew/timed-minority":               0x1f18eae3f9d4cad6,
	"fig1-left/skew/staged-minority":              0x9c356bd513236ef9,
	"fig1-left/skew/staged-mid-log":               0xb78f23597217a452,
	"fig1-left/skew/all-but-one-of-largest":       0x956add257750d429,
	"fig1-left/heal/crash-free":                   0xecfa4bfcd1582916,
	"fig1-left/heal/max-rounds-1":                 0xb867da34981d0b8d,
	"fig1-left/heal/max-steps-1":                  0x024eca1d2f4f6f8b,
	"fig1-left/heal/max-steps-mid":                0x7877860c53729c5b,
	"fig1-left/heal/max-virtual-time":             0x212cbd0f025d2271,
	"fig1-left/heal/timed-minority":               0xa76c35f93e1e8f19,
	"fig1-left/heal/staged-minority":              0xf64b9c7a5840e567,
	"fig1-left/heal/staged-mid-log":               0x6acda8e367de1891,
	"fig1-left/heal/all-but-one-of-largest":       0x50d8594ae141c005,
	"fig1-right/uniform/crash-free":               0x959b3b0ff376c79c,
	"fig1-right/uniform/max-rounds-1":             0x4246575ef8030a21,
	"fig1-right/uniform/max-steps-1":              0x7fe66e08973306c1,
	"fig1-right/uniform/max-steps-mid":            0x307ece12ee2767db,
	"fig1-right/uniform/max-virtual-time":         0x2be29149ca20fba3,
	"fig1-right/uniform/timed-minority":           0xfb5ff905ba2a1bdd,
	"fig1-right/uniform/staged-minority":          0xf35d4a3d59f83227,
	"fig1-right/uniform/staged-mid-log":           0x7b3d57b367815640,
	"fig1-right/uniform/all-but-one-of-largest":   0x10ac9b439247a9c2,
	"fig1-right/skew/crash-free":                  0x04e91ed7348f1624,
	"fig1-right/skew/max-rounds-1":                0x606d63284d328bed,
	"fig1-right/skew/max-steps-1":                 0x7ea6cc0f3c021ee5,
	"fig1-right/skew/max-steps-mid":               0xb999ff59e6a60eec,
	"fig1-right/skew/max-virtual-time":            0x3ecb25091e5b5350,
	"fig1-right/skew/timed-minority":              0x18afceeaea418ca8,
	"fig1-right/skew/staged-minority":             0xb6479d7430723d61,
	"fig1-right/skew/staged-mid-log":              0x2fc804e53cc54e69,
	"fig1-right/skew/all-but-one-of-largest":      0x7a1bd46836f403e2,
	"fig1-right/heal/crash-free":                  0x4f86cd602ae9f1d0,
	"fig1-right/heal/max-rounds-1":                0x52b715680a5fafe2,
	"fig1-right/heal/max-steps-1":                 0x992129e0eef92bd3,
	"fig1-right/heal/max-steps-mid":               0xb28d17ea8a312bf6,
	"fig1-right/heal/max-virtual-time":            0x046754de95fe5c32,
	"fig1-right/heal/timed-minority":              0x1993b6873f2bb9b5,
	"fig1-right/heal/staged-minority":             0x5d7a00f9bec9c5c1,
	"fig1-right/heal/staged-mid-log":              0x336b590a4f69cf47,
	"fig1-right/heal/all-but-one-of-largest":      0xdb9ea00bec27c24a,
	"singletons-4/uniform/crash-free":             0xc9947e52c1f806fb,
	"singletons-4/uniform/max-rounds-1":           0x93e96b5f5095e86b,
	"singletons-4/uniform/max-steps-1":            0xaa8e04cecb61bae5,
	"singletons-4/uniform/max-steps-mid":          0x5f7a64748fca4345,
	"singletons-4/uniform/max-virtual-time":       0x3af54eaf6e83ef83,
	"singletons-4/uniform/timed-minority":         0xd0315bbf0f232ba6,
	"singletons-4/uniform/staged-minority":        0xeea014e13cce94e0,
	"singletons-4/uniform/staged-mid-log":         0x9702ae9d48d0b9fa,
	"singletons-4/uniform/all-but-one-of-largest": 0x0fe0bb88e072468d,
	"singletons-4/skew/crash-free":                0x8a05fbc5e9e67b25,
	"singletons-4/skew/max-rounds-1":              0x87b0915544cddded,
	"singletons-4/skew/max-steps-1":               0x8f4d928f7febe11f,
	"singletons-4/skew/max-steps-mid":             0x7a34f9bbc43e0daf,
	"singletons-4/skew/max-virtual-time":          0x674cf33eb2dea4af,
	"singletons-4/skew/timed-minority":            0x23e4da03a9bd4cb8,
	"singletons-4/skew/staged-minority":           0x58bd70e75a89982c,
	"singletons-4/skew/staged-mid-log":            0x1f796ed535167d23,
	"singletons-4/skew/all-but-one-of-largest":    0x63241f11be706dbd,
	"singletons-4/heal/crash-free":                0xb9e82d48702779cd,
	"singletons-4/heal/max-rounds-1":              0xac3326c1971e1fa9,
	"singletons-4/heal/max-steps-1":               0x425e346cc0d527b5,
	"singletons-4/heal/max-steps-mid":             0x5480e5515495663a,
	"singletons-4/heal/max-virtual-time":          0x0c56469f1c1268a1,
	"singletons-4/heal/timed-minority":            0xeee8a4579a2a1414,
	"singletons-4/heal/staged-minority":           0x791475ef6609b5c0,
	"singletons-4/heal/staged-mid-log":            0xabb53be3e66005d9,
	"singletons-4/heal/all-but-one-of-largest":    0x599750a42c32451d,
	"blocks-9-3/uniform/crash-free":               0xf01c5959948816d0,
	"blocks-9-3/uniform/max-rounds-1":             0x5dc4bbfd7531b4b5,
	"blocks-9-3/uniform/max-steps-1":              0x2eacfa7e82ff1e37,
	"blocks-9-3/uniform/max-steps-mid":            0x53c8bfc4530c11a2,
	"blocks-9-3/uniform/max-virtual-time":         0xdf909e5de50e4a4d,
	"blocks-9-3/uniform/timed-minority":           0x498a8b075ebdcd00,
	"blocks-9-3/uniform/staged-minority":          0xd3bb06ffb25e1d68,
	"blocks-9-3/uniform/staged-mid-log":           0x7ea9a4f040e9bdfe,
	"blocks-9-3/uniform/all-but-one-of-largest":   0x5e59e8bfa2755afb,
	"blocks-9-3/skew/crash-free":                  0x7a45dd291d1c18be,
	"blocks-9-3/skew/max-rounds-1":                0x243ccd71bdb7b2dd,
	"blocks-9-3/skew/max-steps-1":                 0x43a08b73d9926dd5,
	"blocks-9-3/skew/max-steps-mid":               0xfa16c301a928ae17,
	"blocks-9-3/skew/max-virtual-time":            0x7acce3b64cd82be9,
	"blocks-9-3/skew/timed-minority":              0x84e209338b8c9a0b,
	"blocks-9-3/skew/staged-minority":             0xe8f9492d8affa766,
	"blocks-9-3/skew/staged-mid-log":              0x6b8be41a17866170,
	"blocks-9-3/skew/all-but-one-of-largest":      0x71e33d9f8b6bd033,
	"blocks-9-3/heal/crash-free":                  0xde8e1c29879ba03e,
	"blocks-9-3/heal/max-rounds-1":                0x5ead92b339722981,
	"blocks-9-3/heal/max-steps-1":                 0xa512796bd7206cbd,
	"blocks-9-3/heal/max-steps-mid":               0xc1322afc700af26f,
	"blocks-9-3/heal/max-virtual-time":            0xe5cca33303986659,
	"blocks-9-3/heal/timed-minority":              0x3de530f02dda5125,
	"blocks-9-3/heal/staged-minority":             0x9d5fd36af52a60a8,
	"blocks-9-3/heal/staged-mid-log":              0x7116b6b1c10129b1,
	"blocks-9-3/heal/all-but-one-of-largest":      0x66f3281429974807,
	"singletons-1/uniform/crash-free":             0x4e9a1c8489d003e6,
	"singletons-1/uniform/max-rounds-1":           0xd1c4f64c596eb8cd,
	"singletons-1/uniform/max-steps-1":            0x3d348132e6f5191d,
	"singletons-1/uniform/max-steps-mid":          0xd1843a4c1f517c64,
	"singletons-1/uniform/max-virtual-time":       0x03ff8cfef0e2199b,
	"singletons-1/skew/crash-free":                0x8d0e7095dc601510,
	"singletons-1/skew/max-rounds-1":              0x310b66fccf4f2d75,
	"singletons-1/skew/max-steps-1":               0x5c38084b0715b03d,
	"singletons-1/skew/max-steps-mid":             0x68ab2b20bda0a67e,
	"singletons-1/skew/max-virtual-time":          0x172db5ca007818bc,
	"singletons-1/heal/crash-free":                0x44dbdf782b5a0998,
	"singletons-1/heal/max-rounds-1":              0x93d5f0024745ec01,
	"singletons-1/heal/max-steps-1":               0x5654732a90d0acb5,
	"singletons-1/heal/max-steps-mid":             0x7295935f1c683a84,
	"singletons-1/heal/max-virtual-time":          0x6cb41250eca8aac8,
}

// smrGoldenSlots is the log length of every cell; each queue holds one
// command fewer, so a replica that commits all of its own proposes no-ops.
const smrGoldenSlots = 4

// smrProfiles are the kvlog benchmark's delay band plus the baselines'
// per-link matrix and healing partition. cut is an instant inside every
// cell's first slot: the matrix's links (10–142 µs) finish a crash-free log
// at 110 µs on one replica and 343 µs on Fig1Right, so it is cut earlier.
var smrProfiles = []struct {
	name  string
	build func(n int) NetworkProfile
	cut   time.Duration
}{
	{"uniform", func(int) NetworkProfile { return UniformProfile(50*time.Microsecond, 500*time.Microsecond) }, 400 * time.Microsecond},
	{baselineProfiles[1].name, baselineProfiles[1].build, 100 * time.Microsecond},
	{baselineProfiles[2].name, baselineProfiles[2].build, 400 * time.Microsecond},
}

// smrPatterns are the failure patterns and bounds. A pattern without build
// runs crash-free under its bounds: the default round cap, one round per
// instance, or a step or virtual-time bound (the profile's cut) that cuts
// the run at its first event or mid-log. Only those run on a single
// replica. The staged crashes strike at a binary round start, counted
// globally over the replica's instances: round 1 is the first instance of
// slot 0, round 6 lies mid-log. The last pattern leaves one member of the
// largest cluster alive: on Fig1Right that cluster is a majority, so the
// survivor must complete the log alone; elsewhere the run must quiesce.
var smrPatterns = []struct {
	name   string
	everyN bool                                  // also runs on Singletons(1)
	bounds func(n int, cut time.Duration) Bounds // nil: MaxRounds 1000
	build  func(t *testing.T, part *Partition) *Schedule
}{
	{name: "crash-free", everyN: true},
	{name: "max-rounds-1", everyN: true, bounds: func(int, time.Duration) Bounds { return Bounds{MaxRounds: 1} }},
	{name: "max-steps-1", everyN: true, bounds: func(int, time.Duration) Bounds { return Bounds{MaxRounds: 1000, MaxSteps: 1} }},
	{name: "max-steps-mid", everyN: true, bounds: func(n int, _ time.Duration) Bounds {
		return Bounds{MaxRounds: 1000, MaxSteps: int64(8 * n * n)}
	}},
	{name: "max-virtual-time", everyN: true, bounds: func(_ int, cut time.Duration) Bounds {
		return Bounds{MaxRounds: 1000, MaxVirtualTime: cut}
	}},
	{name: "timed-minority", build: func(t *testing.T, part *Partition) *Schedule {
		n := part.N()
		sched := NewSchedule(n)
		for k := 0; k < (n-1)/2; k++ {
			if err := sched.SetTimed(ProcID(2*k+1), time.Duration(k+1)*370*time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		return sched
	}},
	{name: "staged-minority", build: func(t *testing.T, part *Partition) *Schedule {
		n := part.N()
		sched := NewSchedule(n)
		for p := 0; p < (n-1)/2; p++ {
			if err := sched.Set(ProcID(p), Crash{At: CrashPoint{Round: 1, Phase: 1, Stage: StageRoundStart}}); err != nil {
				t.Fatal(err)
			}
		}
		return sched
	}},
	{name: "staged-mid-log", build: func(t *testing.T, part *Partition) *Schedule {
		sched := NewSchedule(part.N())
		if err := sched.Set(ProcID(part.N()/2), Crash{At: CrashPoint{Round: 6, Phase: 1, Stage: StageRoundStart}}); err != nil {
			t.Fatal(err)
		}
		return sched
	}},
	{name: "all-but-one-of-largest", build: func(t *testing.T, part *Partition) *Schedule {
		sched, err := CrashAllExcept(part.N(), CrashPoint{Round: 1, Phase: 1, Stage: StageRoundStart}, smrSurvivor(part))
		if err != nil {
			t.Fatal(err)
		}
		return sched
	}},
}

// smrSurvivor is the lowest-numbered member of the first largest cluster.
func smrSurvivor(part *Partition) ProcID {
	best := ClusterID(0)
	for x, size := range part.Sizes() {
		if size > part.Size(best) {
			best = ClusterID(x)
		}
	}
	return part.Members(best)[0]
}

// smrGoldenScenario builds one cell: queues of smrGoldenSlots−1 commands,
// except the last replica's, which stays empty so its no-op proposals
// compete from the first slot on.
func smrGoldenScenario(name string, part *Partition, prof NetworkProfile) Scenario {
	n := part.N()
	cmds := make([][]string, n)
	for p := 0; p < n-1; p++ {
		for c := 0; c < smrGoldenSlots-1; c++ {
			cmds[p] = append(cmds[p], fmt.Sprintf("set k%d=p%d.%d", (p+c)%3, p, c))
		}
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	return Scenario{
		Protocol: ProtocolSMR,
		Topology: Topology{Partition: part},
		Workload: Workload{Commands: cmds, Slots: smrGoldenSlots},
		Profile:  prof,
		Seed:     int64(h.Sum64() >> 1),
		Bounds:   Bounds{MaxRounds: 1000},
	}
}

// TestSMROutcomeGolden holds the replicated log to its recorded Outcomes on
// both Fig. 1 decompositions, four singletons and three blocks of three (a
// single replica for the crash-free and bounded patterns), under every
// profile and failure pattern above.
func TestSMROutcomeGolden(t *testing.T) {
	t.Parallel()
	blocks, err := Blocks(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	topologies := []struct {
		name string
		part *Partition
	}{
		{"fig1-left", Fig1Left()},
		{"fig1-right", Fig1Right()},
		{"singletons-4", Singletons(4)},
		{"blocks-9-3", blocks},
		{"singletons-1", Singletons(1)},
	}
	for _, top := range topologies {
		for _, prof := range smrProfiles {
			for _, pat := range smrPatterns {
				n := top.part.N()
				if n == 1 && !pat.everyN {
					continue
				}
				name := fmt.Sprintf("%s/%s/%s", top.name, prof.name, pat.name)
				sc := smrGoldenScenario(name, top.part, prof.build(n))
				if pat.build != nil {
					sc.Faults = pat.build(t, top.part)
				}
				if pat.bounds != nil {
					sc.Bounds = pat.bounds(n, prof.cut)
				}
				out, err := Run(sc)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkSMRCell(t, name, sc, out, pat.name == "all-but-one-of-largest")
				maskStorageCounters(out, &out.Raw.(*smr.Result).Sched)
				if got, want := jsonHash(t, out), smrGolden[name]; got != want {
					t.Errorf("%s: Outcome hash %#016x, want %#016x (steps %d, virtual %v, msgs %d/%d)",
						name, got, want, out.Steps, out.VirtualTime, out.Metrics.MsgsDelivered, out.Metrics.MsgsSent)
				}
			}
		}
	}
}

// checkSMRCell requires a safe run with a conclusive verdict: log agreement,
// validity, and either every live replica completed the log, or the run
// quiesced, or every undecided live replica stopped at the round cap — which
// it reaches only after more global rounds than the cap. A cell that leaves
// one member of the largest cluster alive must complete on Fig1Right and
// quiesce elsewhere. A cell with a step or virtual-time bound must instead be
// cut by it.
func checkSMRCell(t *testing.T, name string, sc Scenario, out *Outcome, lastSurvivor bool) {
	t.Helper()
	res := out.Raw.(*smr.Result)
	if err := res.CheckLogAgreement(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := res.CheckLogValidity(sc.Workload.Commands); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if cut := sc.Bounds.MaxSteps > 0 || sc.Bounds.MaxVirtualTime > 0; cut != out.BoundedOut() {
		t.Fatalf("%s: BoundedOut = %v, want %v: %+v", name, out.BoundedOut(), cut, out.Procs)
	}
	if out.BoundedOut() {
		return
	}
	part := sc.Topology.Partition
	if lastSurvivor {
		_, majority := part.MajorityCluster()
		completed := len(res.CompletedLogs(sc.Workload.Slots))
		if majority && completed != 1 || !majority && (completed != 0 || !out.Quiesced) {
			t.Fatalf("%s: %d replicas completed (quiesced %v), want the majority-cluster survivor alone or a quiesced run: %+v",
				name, completed, out.Quiesced, res.Replicas)
		}
		return
	}
	if out.AllLiveDecided() || out.Quiesced {
		return
	}
	for p, pr := range out.Procs {
		if pr.Status == StatusBlocked && pr.Round <= sc.Bounds.MaxRounds {
			t.Fatalf("%s: p%d blocked after %d rounds, below the cap %d: %+v", name, p, pr.Round, sc.Bounds.MaxRounds, out.Procs)
		}
	}
}
