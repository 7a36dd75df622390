package protocol

import (
	"fmt"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/sim"
	"allforone/internal/trace"
)

// Violation is one property a run broke: its name and what the run did.
type Violation struct {
	// Property names the broken property (see Check).
	Property string
	// Err says which processes broke it and how.
	Err error
}

// Error renders the violation, so a Violation is an error.
func (v Violation) Error() string { return v.Property + " violated: " + v.Err.Error() }

// Unwrap returns the checker's own error.
func (v Violation) Unwrap() error { return v.Err }

// A RawChecker is a native result (Outcome.Raw) that checks the properties
// only its protocol can see — replicated-log prefixes, register histories,
// delivered sets — beyond the uniform Outcome.
type RawChecker interface {
	Violations(sc *Scenario) []Violation
}

// Check is the one oracle every run of sc answers to. It judges out, the
// Outcome protocol.Run returned for sc, and returns every property the run
// broke — nil when it is correct:
//
//   - agreement: no two processes decided differently;
//   - validity: every decision is a proposal of the protocol's workload kind;
//   - invariant: no process ended StatusFailed;
//   - round-cap: no live process of a binary protocol ended past
//     Bounds.MaxRounds;
//   - verdict: a bound cut the run only if it was set (a step cut needs a
//     non-negative MaxSteps, a time cut a positive MaxVirtualTime), and a run
//     that no bound cut ended conclusively: every live process decided, or
//     the run quiesced, or a live process stopped at the round cap;
//   - liveness: a conclusive run with no crash decided everywhere; so did one
//     of a one-for-all protocol (Info.OneForAll) whose live processes'
//     clusters cover a majority; and when every crash struck at the top of
//     round 1 and they do not, nobody decided and the run quiesced (which
//     holds vacuously when no process is live); a crash counts once it
//     struck, even on a process that had already finished;
//   - cluster-uniformity, crash-stop and trace, over a recorded sc.Trace:
//     one value per (cluster, round, phase) broadcast, no event after a
//     process's crash, and every decide event matches the Outcome;
//   - whatever the native result checks itself (RawChecker).
//
// A run is conclusive when no bound cut it and no live undecided process
// stopped at a round or instance cap, so a capped run is judged on safety
// only.
func Check(sc Scenario, out *Outcome) []Violation {
	p, ok := Lookup(sc.Protocol)
	if !ok {
		return []Violation{{"scenario", fmt.Errorf("%w %q", ErrUnknownProtocol, sc.Protocol)}}
	}
	var vs []Violation
	add := func(property string, err error) {
		if err != nil {
			vs = append(vs, Violation{property, err})
		}
	}
	add("agreement", out.CheckAgreement())
	switch p.Proposals {
	case ProposalsBinary:
		add("validity", checkBinaryValidity(out, sc.Workload.Binary))
	case ProposalsValues:
		add("validity", out.CheckValidity(sc.Workload.Values))
	}
	if i := out.firstWith(sim.StatusFailed); i >= 0 {
		vs = append(vs, Violation{"invariant", fmt.Errorf("p%d failed an internal check", i+1)})
	}
	if p.Proposals == ProposalsBinary {
		add("round-cap", checkRoundCap(sc.Bounds.MaxRounds, out))
	}
	add("verdict", checkVerdict(sc.Bounds, out))
	if conclusive(sc.Bounds, out) {
		add("liveness", checkLiveness(p.Info, &sc, out))
	}
	if sc.Trace != nil {
		vs = append(vs, checkTrace(sc.Trace, sc.Topology.Partition, out)...)
	}
	if rc, ok := out.Raw.(RawChecker); ok {
		// Only a native checker gets the scenario's address, so a Check of
		// the other protocols' runs leaves sc on the stack.
		sc := sc
		vs = append(vs, rc.Violations(&sc)...)
	}
	return vs
}

// firstWith returns the first process that ended with status st, or −1.
func (o *Outcome) firstWith(st sim.Status) int {
	for i, pr := range o.Procs {
		if pr.Status == st {
			return i
		}
	}
	return -1
}

// checkBinaryValidity is CheckValidity over the rendered binary proposals,
// without rendering them.
func checkBinaryValidity(out *Outcome, props []model.Value) error {
	var proposed [2]bool
	for _, v := range props {
		if v.IsBinary() {
			proposed[v] = true
		}
	}
	for i, pr := range out.Procs {
		if pr.Status != sim.StatusDecided {
			continue
		}
		if !(pr.Decision == "0" && proposed[0] || pr.Decision == "1" && proposed[1]) {
			return fmt.Errorf("p%d decided %q, which no process proposed", i+1, pr.Decision)
		}
	}
	return nil
}

// checkRoundCap requires that no live process of a binary protocol, whose
// rounds are the capped ones, ended past the round cap.
func checkRoundCap(maxRounds int, out *Outcome) error {
	if maxRounds <= 0 {
		return nil
	}
	for i, pr := range out.Procs {
		if pr.Status != sim.StatusCrashed && pr.Round > maxRounds {
			return fmt.Errorf("p%d ended %v at round %d, past the cap %d", i+1, pr.Status, pr.Round, maxRounds)
		}
	}
	return nil
}

// checkVerdict requires a bound cut to come from a bound the scenario set,
// and a run no bound cut to end conclusively.
func checkVerdict(b Bounds, out *Outcome) error {
	switch {
	case out.DeadlineExceeded && b.MaxVirtualTime <= 0:
		return fmt.Errorf("cut at a virtual-time bound, but none was set")
	case out.StepsExceeded && b.MaxSteps < 0:
		return fmt.Errorf("cut at a step bound, but MaxSteps %d is unbounded", b.MaxSteps)
	case out.BoundedOut() || out.AllLiveDecided() || out.Quiesced || capped(b, out):
		return nil
	}
	return fmt.Errorf("%d live processes ended undecided, but the run neither quiesced nor was cut", out.Undecided())
}

// capped reports whether a live undecided process may have stopped at a
// round or instance cap. Rounds count per binary instance, so a process at
// round r ≥ MaxRounds may have hit it; an instance cap may strike any
// process.
func capped(b Bounds, out *Outcome) bool {
	if b.MaxRounds <= 0 && b.MaxInstances <= 0 {
		return false
	}
	for _, pr := range out.Procs {
		if pr.Status == sim.StatusBlocked && (b.MaxInstances > 0 || pr.Round >= b.MaxRounds) {
			return true
		}
	}
	return false
}

// conclusive reports whether the run ended on its own: no bound cut it and
// no cap stopped it.
func conclusive(b Bounds, out *Outcome) bool { return !out.BoundedOut() && !capped(b, out) }

// checkLiveness applies the termination conditions to a conclusive run.
func checkLiveness(info Info, sc *Scenario, out *Outcome) error {
	crashes := 0
	for p := range out.Procs {
		if struck(sc, out, p) {
			crashes++
		}
	}
	covered, why := crashes == 0, "no process crashed"
	if info.OneForAll && crashes > 0 {
		// A flat protocol's clusters are its processes.
		covered = 2*(len(out.Procs)-crashes) > len(out.Procs)
		if info.Topology == TopologyPartition {
			crashed := model.NewProcSet(len(out.Procs))
			for p := range out.Procs {
				if struck(sc, out, p) {
					crashed.Add(model.ProcID(p))
				}
			}
			covered = sc.Topology.Partition.LivenessHolds(crashed)
		}
		why = "the clusters of the live processes cover a majority"
		if !covered && crashedAtStart(sc.Faults) {
			// With no live process left, "nobody decided and the run
			// quiesced" holds vacuously: a run nobody steps in ends before
			// it could quiesce.
			live := len(out.Procs) - crashes
			if _, count, _ := out.Decided(); count > 0 || (live > 0 && !out.Quiesced) {
				return fmt.Errorf("the clusters of the live processes do not cover a majority and every crash struck at round 1's start, yet %d processes decided (quiesced %v)",
					count, out.Quiesced)
			}
		}
	}
	if covered && !out.AllLiveDecided() {
		return fmt.Errorf("%d live processes undecided although %s", out.Undecided(), why)
	}
	return nil
}

// struck reports whether a crash struck process p: it ended StatusCrashed,
// or the run reached its timed crash instant. A register process whose
// script finished before its timed crash still ends StatusDecided.
func struck(sc *Scenario, out *Outcome, p int) bool {
	if out.Procs[p].Status == sim.StatusCrashed {
		return true
	}
	at, ok := sc.Faults.TimedPlan(model.ProcID(p))
	return ok && at <= out.VirtualTime
}

// crashedAtStart reports whether every planned crash strikes at the top of
// round 1, before its process took a step.
func crashedAtStart(s *failures.Schedule) bool {
	if s.HasTimed() {
		return false
	}
	start := failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}
	for p := 0; p < s.N(); p++ {
		if c, ok := s.Plan(model.ProcID(p)); ok && c.At != start {
			return false
		}
	}
	return true
}

// checkTrace checks a recorded history: cluster uniformity on the partition,
// crash-stop, and decide events that match the Outcome.
func checkTrace(l *trace.Log, part *model.Partition, out *Outcome) []Violation {
	var vs []Violation
	if part != nil {
		if err := trace.CheckClusterUniformity(l, part); err != nil {
			vs = append(vs, Violation{"cluster-uniformity", err})
		}
	}
	crashed := make([]bool, len(out.Procs))
	for _, e := range l.Events() {
		switch {
		case int(e.P) >= len(crashed):
			vs = append(vs, Violation{"trace", fmt.Errorf("event %v of a process the run does not have", e)})
		case crashed[e.P]:
			vs = append(vs, Violation{"crash-stop", fmt.Errorf("%v took step %v after crashing", e.P, e)})
			crashed[e.P] = false // one violation per zombie
		case e.Kind == trace.KindCrash:
			crashed[e.P] = true
		case e.Kind == trace.KindDecide:
			if pr := out.Procs[e.P]; pr.Status != sim.StatusDecided || pr.Decision != e.Value.String() {
				vs = append(vs, Violation{"trace", fmt.Errorf("%v logged decide %v but ended %v %q", e.P, e.Value, pr.Status, pr.Decision)})
			}
		}
	}
	return vs
}
