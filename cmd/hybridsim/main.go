// Command hybridsim runs one scenario on the protocol registry and prints
// every process's outcome plus the run's cost metrics. It is a thin CLI
// over allforone.Run: pick a protocol (-protocol, see -list-protocols), a
// topology (-partition / -n / -mm-edges), a workload (-proposals), and an
// adversary (-crash / -crash-timed / -crash-all-except, -profile).
//
// Examples:
//
//	# Figure 1 right layout, common-coin algorithm, alternating proposals
//	hybridsim -partition 1/2-5/6-7 -algo common-coin -proposals 1000011 -seed 7
//
//	# The paper's flagship scenario: crash everyone but p3 (in the
//	# majority cluster); the survivor still decides.
//	hybridsim -partition 1/2-5/6-7 -algo local-coin -proposals 1111111 \
//	    -crash-all-except 3
//
//	# Same scenario, different protocol: pure message passing blocks.
//	hybridsim -protocol benor -partition 1/2-5/6-7 -proposals 1111111 \
//	    -crash-all-except 3 -max-virtual-time 100ms
//
//	# A cluster-WAN delay profile on the hybrid algorithm.
//	hybridsim -profile wan:100us:5ms:1ms -proposals random
//
//	# A partition of the first cluster that heals at 2ms of virtual time.
//	hybridsim -profile heal:2ms:0s:200us -proposals random
//
//	# Multivalued consensus on string proposals.
//	hybridsim -protocol multivalued -proposals alpha,beta,gamma,delta,epsilon,zeta,eta
//
//	# The sparse-overlay family: one rumor source among 1000 processes on
//	# a circulant digraph of out-degree 5.
//	hybridsim -protocol gossip -n 1000 -proposals random -overlay circulant:5
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"time"

	"allforone"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hybridsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hybridsim", flag.ContinueOnError)
	var (
		protoName  = fs.String("protocol", "hybrid", "protocol registry name (see -list-protocols)")
		listProtos = fs.Bool("list-protocols", false, "list the protocol registry and exit")
		partSpec   = fs.String("partition", "1-3/4-5/6-7", "cluster decomposition, 1-based (e.g. 1/2-5/6-7)")
		nFlag      = fs.Int("n", 0, "process count for protocols without a partition (0 = take it from -partition)")
		mmEdges    = fs.String("mm-edges", "", "m&m graph edges a-b;c-d…, 1-based (protocol mm; empty = ring)")
		ovSpec     = fs.String("overlay", "", "sparse overlay digraph KIND[:DEGREE[:SEED]], kind debruijn|circulant|random (protocols gossip/allconcur; empty = debruijn at the default degree)")
		algoFlag   = fs.String("algo", "", "hybrid algorithm: local-coin or common-coin (empty = common-coin)")
		proposals  = fs.String("proposals", "random", "per-process bits (e.g. 1011010), 'random', or comma-separated strings (multivalued/smr)")
		slots      = fs.Int("slots", 2, "log slots to agree on (protocol smr)")
		seed       = fs.Int64("seed", 1, "run seed (coins, delays, crash subsets)")
		maxRounds  = fs.Int("max-rounds", 10000, "round cap per binary instance (0 = unbounded)")
		profile    = fs.String("profile", "", "network profile: uniform:MIN:MAX, skew:BASE:STEP, wan:INTRA:INTER:JITTER, heal:AT:MIN:MAX (empty = immediate delivery)")
		maxVTime   = fs.Duration("max-virtual-time", 0, "bound on the virtual clock (0 = unbounded)")
		crashSpec  = fs.String("crash", "", "step-point crash plans proc:round:phase:stage;... (1-based proc)")
		timedSpec  = fs.String("crash-timed", "", "timed crash plans proc:instant;... (1-based proc, Go durations)")
		survivors  = fs.String("crash-all-except", "", "crash everyone at round 1 start except these (comma-separated, 1-based)")
		showTrace  = fs.Bool("trace", false, "print the event trace (hybrid protocol only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listProtos {
		printRegistry(out)
		return nil
	}

	proto, ok := allforone.LookupProtocol(*protoName)
	info := proto.Info
	if !ok {
		return fmt.Errorf("unknown protocol %q (try -list-protocols)", *protoName)
	}

	// Normalize the short algorithm aliases the pre-registry CLI accepted.
	switch *algoFlag {
	case "local", "2":
		*algoFlag = allforone.AlgoLocalCoin
	case "common", "3":
		*algoFlag = allforone.AlgoCommonCoin
	}

	sc := allforone.Scenario{
		Protocol:  *protoName,
		Algorithm: *algoFlag,
		Seed:      *seed,
		Bounds: allforone.Bounds{
			MaxRounds:      *maxRounds,
			MaxVirtualTime: *maxVTime,
		},
	}

	// Topology: hybrid protocols need the partition; flat ones take n from
	// it unless -n overrides; mm builds its graph from -mm-edges.
	part, err := allforone.ParsePartition(*partSpec)
	if err != nil {
		return err
	}
	n := part.N()
	if info.Topology == allforone.TopologyPartition {
		sc.Topology.Partition = part
	} else if *nFlag > 0 {
		n = *nFlag
		sc.Topology.N = n
	} else {
		sc.Topology.Partition = part
	}
	if info.Topology == allforone.TopologyGraph {
		edges, err := parseEdges(*mmEdges, n)
		if err != nil {
			return err
		}
		sc.Topology.MMEdges = edges
	}
	if info.Topology == allforone.TopologyOverlay || *ovSpec != "" {
		ov, err := parseOverlay(*ovSpec)
		if err != nil {
			return err
		}
		sc.Topology.Overlay = ov
	}

	// Workload.
	var allowed []string
	var workloadLine string
	switch info.Proposals {
	case allforone.ProposalsBinary:
		props, err := parseProposals(*proposals, n, *seed)
		if err != nil {
			return err
		}
		sc.Workload.Binary = props
		allowed = renderBinary(props)
		workloadLine = fmt.Sprintf("proposals : %s", strings.Join(allowed, ""))
	case allforone.ProposalsValues:
		vals := splitCSV(*proposals, n)
		sc.Workload.Values = vals
		allowed = vals
		workloadLine = fmt.Sprintf("proposals : %s", strings.Join(vals, ","))
	case allforone.ProposalsCommands:
		vals := splitCSV(*proposals, n)
		cmds := make([][]string, n)
		for i, v := range vals {
			cmds[i] = []string{v}
		}
		sc.Workload.Commands = cmds
		sc.Workload.Slots = *slots
		workloadLine = fmt.Sprintf("commands  : %s (slots=%d)", strings.Join(vals, ","), *slots)
	default:
		return fmt.Errorf("protocol %q consumes %v workloads; drive it through the Go API (allforone.Run)", info.Name, info.Proposals)
	}

	// Faults.
	sched, err := parseCrashes(*crashSpec, *timedSpec, *survivors, n)
	if err != nil {
		return err
	}
	sc.Faults = sched

	// Network profile.
	prof, err := allforone.ParseProfile(*profile)
	if err != nil {
		return err
	}
	sc.Profile = prof

	var log *allforone.Trace
	if info.Traceable {
		log = allforone.NewTrace()
		sc.Trace = log
	} else if *showTrace {
		return fmt.Errorf("protocol %q does not record traces", info.Name)
	}

	fmt.Fprintf(out, "protocol  : %s\n", info.Name)
	if sc.Topology.Partition != nil {
		fmt.Fprintf(out, "partition : %v\n", sc.Topology.Partition)
	} else {
		fmt.Fprintf(out, "processes : %d\n", n)
	}
	if ov := sc.Topology.Overlay; ov != nil {
		d := ov.Degree
		if d == 0 {
			d = allforone.DefaultOverlayDegree(n)
		}
		fmt.Fprintf(out, "overlay   : %v d=%d\n", ov.Kind, d)
	}
	if len(info.Algorithms) > 0 {
		algo := sc.Algorithm
		if algo == "" {
			algo = info.Algorithms[len(info.Algorithms)-1] + " (default)"
		}
		fmt.Fprintf(out, "algorithm : %s\n", algo)
	}
	fmt.Fprintln(out, workloadLine)
	if prof != nil {
		fmt.Fprintf(out, "profile   : %s\n", prof.ProfileName())
	}
	if sched != nil && sched.Len() > 0 {
		fmt.Fprintf(out, "crashes   : %d scheduled (%v)\n", sched.Len(), sched.Crashed())
		if sc.Topology.Partition != nil {
			fmt.Fprintf(out, "liveness  : condition holds = %v\n", sc.Topology.Partition.LivenessHolds(sched.Crashed()))
		}
	}

	res, err := allforone.Run(sc)
	if err != nil {
		return err
	}

	fmt.Fprintln(out)
	for i, pr := range res.Procs {
		switch pr.Status {
		case allforone.StatusDecided:
			if pr.Decision == "" {
				fmt.Fprintf(out, "%-4v completed (round %d)\n", allforone.ProcID(i), pr.Round)
			} else {
				// Replicated-log decisions join slots with LogSlotSep; render it.
				decision := strings.ReplaceAll(pr.Decision, allforone.LogSlotSep, ",")
				fmt.Fprintf(out, "%-4v decided %v at round %d\n", allforone.ProcID(i), decision, pr.Round)
			}
		case allforone.StatusCrashed:
			fmt.Fprintf(out, "%-4v crashed at round %d\n", allforone.ProcID(i), pr.Round)
		default:
			fmt.Fprintf(out, "%-4v %v (last round %d)\n", allforone.ProcID(i), pr.Status, pr.Round)
		}
	}
	m := res.Metrics
	fmt.Fprintf(out, "\nmetrics: msgs=%d delivered=%d broadcasts=%d decide-msgs=%d cons-inv=%d coin-flips=%d max-round=%d elapsed=%v\n",
		m.MsgsSent, m.MsgsDelivered, m.Broadcasts, m.DecideMsgs, m.ConsInvocations, m.CoinFlips, m.MaxRound, res.Elapsed.Round(time.Microsecond))

	if vs := allforone.Check(sc, res); vs != nil {
		return fmt.Errorf("%d properties broken, first: %w", len(vs), vs[0])
	}
	checks := "agreement ✓"
	if allowed != nil {
		checks += "  validity ✓"
	}
	if log != nil && sc.Topology.Partition != nil {
		checks += "  cluster-uniformity ✓"
	}
	fmt.Fprintf(out, "safety: %s\n", checks)

	if *showTrace && log != nil {
		fmt.Fprintln(out, "\ntrace:")
		for _, e := range log.Events() {
			fmt.Fprintf(out, "  %v\n", e)
		}
	}
	return nil
}

// printRegistry renders the protocol registry.
func printRegistry(out io.Writer) {
	fmt.Fprintln(out, "registered protocols:")
	for _, info := range allforone.Protocols() {
		caps := []string{fmt.Sprintf("proposals=%v", info.Proposals), fmt.Sprintf("topology=%v", info.Topology)}
		if info.HasNetwork {
			caps = append(caps, "network")
		}
		if info.StageCrashes {
			caps = append(caps, "stage-crashes")
		}
		if info.Traceable {
			caps = append(caps, "trace")
		}
		if len(info.Algorithms) > 0 {
			caps = append(caps, "algos="+strings.Join(info.Algorithms, "|"))
		}
		fmt.Fprintf(out, "  %-12s %s\n", info.Name, info.Description)
		fmt.Fprintf(out, "  %-12s [%s]\n", "", strings.Join(caps, ", "))
	}
}

func parseProposals(spec string, n int, seed int64) ([]allforone.Value, error) {
	props := make([]allforone.Value, n)
	if spec == "random" {
		rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
		for i := range props {
			if rng.Uint64()&1 == 1 {
				props[i] = allforone.One
			}
		}
		return props, nil
	}
	if len(spec) != n {
		return nil, fmt.Errorf("proposals %q has %d bits, want %d", spec, len(spec), n)
	}
	for i, c := range spec {
		switch c {
		case '0':
			props[i] = allforone.Zero
		case '1':
			props[i] = allforone.One
		default:
			return nil, fmt.Errorf("proposal bit %q at position %d (want 0 or 1)", c, i)
		}
	}
	return props, nil
}

func renderBinary(props []allforone.Value) []string {
	out := make([]string, len(props))
	for i, v := range props {
		out[i] = v.String()
	}
	return out
}

// splitCSV splits comma-separated proposals, padding by cycling when fewer
// than n are given (so `-proposals a,b` works for any n).
func splitCSV(spec string, n int) []string {
	items := strings.Split(spec, ",")
	out := make([]string, n)
	for i := range out {
		out[i] = strings.TrimSpace(items[i%len(items)])
	}
	return out
}

// parseOverlay parses "kind[:degree[:seed]]" overlay specs; empty means a
// de Bruijn digraph at the default degree for the process count.
func parseOverlay(spec string) (*allforone.OverlaySpec, error) {
	if spec == "" {
		return &allforone.OverlaySpec{Kind: allforone.OverlayDeBruijn}, nil
	}
	parts := strings.Split(spec, ":")
	if len(parts) > 3 {
		return nil, fmt.Errorf("overlay %q: want kind[:degree[:seed]]", spec)
	}
	kind, err := allforone.ParseOverlayKind(parts[0])
	if err != nil {
		return nil, err
	}
	ov := &allforone.OverlaySpec{Kind: kind}
	if len(parts) > 1 {
		d, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("overlay %q: bad degree: %w", spec, err)
		}
		ov.Degree = d
	}
	if len(parts) > 2 {
		s, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("overlay %q: bad seed: %w", spec, err)
		}
		ov.Seed = s
	}
	return ov, nil
}

// parseEdges parses "a-b;c-d" 1-based edge specs; empty means a ring.
func parseEdges(spec string, n int) ([][2]int, error) {
	if spec == "" {
		edges := make([][2]int, 0, n)
		for i := 0; i < n; i++ {
			edges = append(edges, [2]int{i, (i + 1) % n})
		}
		if n == 2 {
			edges = edges[:1]
		}
		return edges, nil
	}
	var edges [][2]int
	for _, item := range strings.Split(spec, ";") {
		a, b, ok := strings.Cut(strings.TrimSpace(item), "-")
		if !ok {
			return nil, fmt.Errorf("edge %q: want a-b", item)
		}
		av, err := strconv.Atoi(strings.TrimSpace(a))
		if err != nil {
			return nil, fmt.Errorf("edge %q: %w", item, err)
		}
		bv, err := strconv.Atoi(strings.TrimSpace(b))
		if err != nil {
			return nil, fmt.Errorf("edge %q: %w", item, err)
		}
		edges = append(edges, [2]int{av - 1, bv - 1})
	}
	return edges, nil
}

func parseStage(name string) (allforone.CrashStage, error) {
	switch strings.ToLower(name) {
	case "round-start", "start":
		return allforone.StageRoundStart, nil
	case "after-cons", "after-cluster-consensus":
		return allforone.StageAfterClusterConsensus, nil
	case "mid-broadcast", "broadcast":
		return allforone.StageMidBroadcast, nil
	case "after-exchange", "exchange":
		return allforone.StageAfterExchange, nil
	case "before-decide", "decide":
		return allforone.StageBeforeDecide, nil
	}
	return 0, fmt.Errorf("unknown stage %q", name)
}

func parseCrashes(crashSpec, timedSpec, survivors string, n int) (*allforone.Schedule, error) {
	if survivors != "" {
		var keep []allforone.ProcID
		for _, s := range strings.Split(survivors, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return nil, fmt.Errorf("bad survivor %q: %w", s, err)
			}
			keep = append(keep, allforone.ProcID(v-1))
		}
		return allforone.CrashAllExcept(n,
			allforone.CrashPoint{Round: 1, Phase: 1, Stage: allforone.StageRoundStart}, keep...)
	}
	if crashSpec == "" && timedSpec == "" {
		return nil, nil
	}
	sched := allforone.NewSchedule(n)
	if crashSpec != "" {
		for _, item := range strings.Split(crashSpec, ";") {
			parts := strings.Split(strings.TrimSpace(item), ":")
			if len(parts) != 4 {
				return nil, fmt.Errorf("crash plan %q: want proc:round:phase:stage", item)
			}
			proc, err := strconv.Atoi(parts[0])
			if err != nil {
				return nil, fmt.Errorf("crash plan %q: bad process: %w", item, err)
			}
			round, err := strconv.Atoi(parts[1])
			if err != nil {
				return nil, fmt.Errorf("crash plan %q: bad round: %w", item, err)
			}
			phase, err := strconv.Atoi(parts[2])
			if err != nil {
				return nil, fmt.Errorf("crash plan %q: bad phase: %w", item, err)
			}
			stage, err := parseStage(parts[3])
			if err != nil {
				return nil, fmt.Errorf("crash plan %q: %w", item, err)
			}
			if err := sched.Set(allforone.ProcID(proc-1), allforone.Crash{
				At: allforone.CrashPoint{Round: round, Phase: phase, Stage: stage},
			}); err != nil {
				return nil, err
			}
		}
	}
	if timedSpec != "" {
		for _, item := range strings.Split(timedSpec, ";") {
			procRaw, durRaw, ok := strings.Cut(strings.TrimSpace(item), ":")
			if !ok {
				return nil, fmt.Errorf("timed crash %q: want proc:instant", item)
			}
			proc, err := strconv.Atoi(strings.TrimSpace(procRaw))
			if err != nil {
				return nil, fmt.Errorf("timed crash %q: bad process: %w", item, err)
			}
			at, err := time.ParseDuration(strings.TrimSpace(durRaw))
			if err != nil {
				return nil, fmt.Errorf("timed crash %q: bad instant: %w", item, err)
			}
			if err := sched.SetTimed(allforone.ProcID(proc-1), at); err != nil {
				return nil, err
			}
		}
	}
	return sched, nil
}
