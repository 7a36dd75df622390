package shconsensus

import (
	"math/rand/v2"
	"testing"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// outcome folds res into the uniform Outcome whose checks these tests read.
func outcome(res *sim.Result) *protocol.Outcome { return protocol.BinaryOutcome(ProtocolName, res) }

// rendered returns vs as an Outcome renders decisions.
func rendered(vs []model.Value) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// scenario is a shared-memory run of proposals on n processes.
func scenario(n int, proposals []model.Value) protocol.Scenario {
	return protocol.Scenario{
		Protocol: ProtocolName,
		Topology: protocol.Topology{N: n},
		Workload: protocol.Workload{Binary: proposals},
	}
}

// run runs sc through the registry and returns its raw result.
func run(t *testing.T, sc protocol.Scenario) *sim.Result {
	t.Helper()
	out, err := protocol.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out.Raw.(*sim.Result)
}

func TestAgreementValidityTermination(t *testing.T) {
	t.Parallel()
	for trial := 0; trial < 50; trial++ {
		const n = 16
		props := make([]model.Value, n)
		for i := range props {
			props[i] = model.Value(int8((i + trial) % 2))
		}
		res := run(t, scenario(n, props))
		if err := outcome(res).CheckAgreement(); err != nil {
			t.Fatal(err)
		}
		if err := outcome(res).CheckValidity(rendered(props)); err != nil {
			t.Fatal(err)
		}
		if !outcome(res).AllLiveDecided() {
			t.Fatalf("not all decided: %+v", res.Procs)
		}
		if res.Metrics.ConsInvocations != n {
			t.Errorf("ConsInvocations = %d, want %d (one per process)", res.Metrics.ConsInvocations, n)
		}
		if res.Metrics.MsgsSent != 0 {
			t.Errorf("MsgsSent = %d, want 0 (pure shared memory)", res.Metrics.MsgsSent)
		}
	}
}

// Any number of crashes is tolerated: a single survivor still decides
// (wait-freedom).
func TestWaitFreedomUnderCrashes(t *testing.T) {
	t.Parallel()
	const n = 8
	sched, err := failures.CrashAllExcept(n,
		failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}, 5)
	if err != nil {
		t.Fatal(err)
	}
	props := make([]model.Value, n)
	for i := range props {
		props[i] = model.One
	}
	sc := scenario(n, props)
	sc.Faults = sched
	res := run(t, sc)
	if res.Procs[5].Status != sim.StatusDecided || res.Procs[5].Decision != model.One {
		t.Errorf("survivor outcome = %+v", res.Procs[5])
	}
	if got := outcome(res).CountStatus(sim.StatusCrashed); got != n-1 {
		t.Errorf("crashed = %d, want %d", got, n-1)
	}
	if res.Metrics.ConsInvocations != 1 {
		t.Errorf("ConsInvocations = %d, want 1", res.Metrics.ConsInvocations)
	}
}

// TestSafetyAcrossSchedules pins who wins the CAS: the protocol has no
// network and no delays — its schedule space is who proposes what and who
// crashes before proposing — so 32 seeds draw both, and the first live
// process's proposal must win every time. Each run must also pass
// protocol.Check and terminate wait-free. Replay and the crash-free and
// minority cells are the registry property suite's shmem row.
func TestSafetyAcrossSchedules(t *testing.T) {
	t.Parallel()
	const n = 8
	for seed := uint64(0); seed < 32; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5c))
		props := make([]model.Value, n)
		for i := range props {
			props[i] = model.BitToValue(rng.Uint64())
		}
		sched, err := failures.GenRandom(rng, n, rng.IntN(n), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		sc := scenario(n, props)
		sc.Faults = sched
		out, err := protocol.Run(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if vs := protocol.Check(sc, out); vs != nil {
			t.Errorf("seed %d: %v", seed, vs)
		}
		if !out.AllLiveDecided() {
			t.Errorf("seed %d: not all decided: %+v", seed, out.Procs)
		}
		for p, pr := range out.Procs {
			if pr.Status == sim.StatusDecided {
				if pr.Decision != props[p].String() {
					t.Errorf("seed %d: decided %v, want first live process p%d's %v", seed, pr.Decision, p+1, props[p])
				}
				break
			}
		}
	}
}
