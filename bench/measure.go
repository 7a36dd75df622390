package main

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"allforone/internal/harness"
	"allforone/internal/protocol"
	"allforone/internal/smr"
)

// processStart anchors setup_s: everything a fresh process does before its
// first timed pass, runtime start-up included.
var processStart = time.Now()

// metric is one reported number. The driver's contract fixes this shape.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output of a single-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples  map[string][]float64 // what the medians were taken over
	firstErr error                // the first run that failed the oracle
}

// runner executes passes of one workload closed-loop and judges every run.
type runner struct {
	w      workload
	scale  scale
	seed   uint64
	serial bool    // run at Workers = 1 (inline expansion, no pool) instead of `workers`
	tr     *tracer // nil: tracing off

	ref       []*protocol.Outcome // the warm-up pass: what every later pass must replay
	passes    int                 // passes run after the warm-up
	attempted int
	failed    int
	firstErr  error
}

// passStats is what one pass leaves behind: its wall time and its exact
// boundary counts (its Outcomes are dropped once judged).
type passStats struct {
	wall   time.Duration
	counts map[string]float64
}

// benchOwn runs the benchmark's own work (input generation, the oracle).
// It exists as a stack frame: CPU samples under it are not the system's.
//
//go:noinline
func benchOwn(fn func()) { fn() }

// pass generates the workload's inputs afresh, runs them — timing only the
// calls into the system — and judges the outcomes. The first pass of a
// runner is the warm-up and becomes the replay reference.
func (r *runner) pass(id int) passStats {
	root := r.tr.begin("pass", id)
	defer r.tr.end(root)

	var ins []input
	g := r.tr.begin("bench.gen", id)
	benchOwn(func() {
		ins = r.w.gen(r.scale, r.seed)
		for i := range ins {
			ins[i].sc.Workers = workers
			if r.serial {
				ins[i].sc.Workers = 1
			}
		}
	})
	r.tr.end(g)

	outs := make([]*protocol.Outcome, len(ins))
	errs := make([]error, len(ins))
	var wall time.Duration
	if r.w.sweep {
		scs := make([]protocol.Scenario, len(ins))
		for i := range ins {
			scs[i] = ins[i].sc
		}
		sp := r.tr.begin("harness.Sweep", id)
		t0 := time.Now()
		swept, err := harness.Sweep(scs, sweepPar)
		wall = time.Since(t0)
		r.tr.end(sp)
		// Sweep aborts on the first error and returns no outcomes: every
		// run of the pass is then lost, and counted so.
		for i := range ins {
			if err != nil {
				errs[i] = err
			} else {
				outs[i] = swept[i]
			}
		}
	} else {
		for i := range ins {
			sp := r.tr.begin("protocol.Run", id)
			t0 := time.Now()
			outs[i], errs[i] = protocol.Run(ins[i].sc)
			wall += time.Since(t0)
			r.tr.end(sp)
		}
	}

	c := r.tr.begin("bench.check", id)
	var counts map[string]float64
	benchOwn(func() {
		r.check(ins, outs, errs)
		counts = passCounts(outs)
	})
	r.tr.end(c)
	return passStats{wall: wall, counts: counts}
}

// check is the correctness oracle: every run must return without error,
// inside its bounds, with agreement, validity against the generated
// proposals and every live process decided; and every pass after the first
// must reproduce the first one's Outcomes exactly (the replay contract).
func (r *runner) check(ins []input, outs []*protocol.Outcome, errs []error) {
	for i, in := range ins {
		r.attempted++
		err := judge(in, outs[i], errs[i])
		if err == nil && r.ref != nil && !reflect.DeepEqual(outs[i], r.ref[i]) {
			err = fmt.Errorf("outcome differs from the warm-up pass's (replay contract)")
		}
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("%s run %d (%s, seed %d): %w", r.w.name, i, in.sc.Protocol, in.sc.Seed, err)
			}
		}
	}
	if r.ref == nil {
		r.ref = outs
	}
}

func judge(in input, out *protocol.Outcome, err error) error {
	if err != nil {
		return err
	}
	if out.BoundedOut() {
		return fmt.Errorf("run was cut short at a bound after %d steps", out.Steps)
	}
	if err := out.CheckAgreement(); err != nil {
		return err
	}
	if res, ok := out.Raw.(*smr.Result); ok {
		err = res.CheckLogValidity(in.sc.Workload.Commands)
	} else {
		err = out.CheckValidity(in.allowed)
	}
	if err != nil {
		return err
	}
	if !out.AllLiveDecided() {
		return fmt.Errorf("%d live processes did not decide", out.Undecided())
	}
	return nil
}

// warmUp is set-up as setup_s counts it: input generation plus the first
// pass, timed from `since` — processStart in a process that does nothing
// else first.
func (r *runner) warmUp(since time.Time) time.Duration {
	r.pass(0)
	return time.Since(since)
}

// next runs one more pass. The garbage of the pass before is collected
// first, so no pass pays for its predecessor.
func (r *runner) next() passStats {
	benchOwn(runtime.GC)
	r.passes++
	return r.pass(r.passes)
}

// timedPasses runs passes until `seconds` of wall time have gone by, and at
// least minPasses of them.
func (r *runner) timedPasses(seconds float64, minPasses int) []passStats {
	var all []passStats
	start := time.Now()
	for len(all) < minPasses || time.Since(start).Seconds() < seconds {
		all = append(all, r.next())
	}
	return all
}

func (r *runner) result(metrics map[string]metric) result {
	return result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
		firstErr:  r.firstErr,
	}
}

// median of a non-empty sample; the mean of the middle two when even.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func walls(ps []passStats) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

// peakRSSMB is the high-water resident set of this process image: VmHWM of
// /proc/self/status. Getrusage's ru_maxrss will not do, because Linux carries
// it across exec: it starts at the peak of whatever process forked the
// launcher, which floors the small workloads at the caller's size.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("bench: peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("bench: peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("bench: peak RSS: no VmHWM line in /proc/self/status")
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
