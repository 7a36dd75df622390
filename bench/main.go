// Command bench is the repository's benchmark of record: five named
// workloads, host-cost end-to-end metrics, per-layer unit costs and a
// profiled trace. BENCHMARK.json at the repository root names its command
// line; README.md in this directory explains every workload and metric.
//
//	bash bench/run.sh --workload hybrid-dense --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload hybrid-dense --seed 1 --seconds 15 --trace 1
//	bash bench/run.sh                          # every workload, both ways: bench/out/report.json
//	bash bench/run.sh -layers                  # the layer drivers alone
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	_ "allforone/internal/protocols"
)

const (
	defaultSeconds = 15
	minTimedPasses = 3
	setupChildren  = 3
	driverSamples  = 5
)

// config is one single-workload run's settings. The smoke test shrinks it;
// the command line always runs at full scale.
type config struct {
	scale         scale
	seed          uint64
	seconds       float64
	minPasses     int
	setupChildren int // fresh processes that measure setup_s; 0: this process's own warm-up
	driverSamples int
	outDir        string
}

func main() {
	var (
		name      = flag.String("workload", "", "run this workload alone and print one result line (default: all, as a report)")
		seed      = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run and the layer drivers")
		layers    = flag.Bool("layers", false, "run the layer drivers alone")
		compare   = flag.Bool("compare", false, "compare two reports: -compare old.json new.json")
		describe  = flag.Bool("describe", false, "print BENCHMARK.json")
		outDir    = flag.String("out", filepath.Join("bench", "out"), "directory for the report and the trace files")
		setupOnly = flag.Bool("setup-only", false, "internal: generate, run the warm-up pass, print its cost and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs)

	cfg := config{
		scale: full, seed: uint64(*seed), seconds: *seconds, minPasses: minTimedPasses,
		setupChildren: setupChildren, driverSamples: driverSamples, outDir: *outDir,
	}
	var err error
	switch {
	case *describe:
		err = printBenchmarkJSON()
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("bench: -compare takes two report files: old.json new.json")
			break
		}
		err = compareReports(flag.Arg(0), flag.Arg(1))
	case *layers:
		err = printLayerDrivers(cfg)
	case *name == "":
		err = runReport(cfg)
	default:
		w, ok := findWorkload(*name)
		if !ok {
			err = fmt.Errorf("bench: unknown workload %q", *name)
			break
		}
		switch {
		case *setupOnly:
			err = runSetupOnly(w, cfg)
		case *trace == 0:
			err = printResult(runTimed(w, cfg))
		case *trace == 1:
			err = printResult(runTraced(w, cfg))
		default:
			err = fmt.Errorf("bench: -trace is 0 or 1, not %d", *trace)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// errRunsFailed makes the command exit non-zero after the metrics are out.
var errRunsFailed = errors.New("bench: some runs failed the correctness oracle")

// printResult prints a single-workload run: the samples behind the medians
// on one line, then the result as the last line.
func printResult(res result, err error) error {
	if err != nil {
		return err
	}
	if res.samples != nil {
		line, err := json.Marshal(res.samples)
		if err != nil {
			return err
		}
		fmt.Printf("samples %s\n", line)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if res.firstErr != nil {
		return fmt.Errorf("%w: %d of %d, first: %v", errRunsFailed, res.Failed, res.Attempted, res.firstErr)
	}
	return nil
}

// runTimed is the --trace 0 run of one workload: set-up measured in fresh
// processes, then a warm-up and timed passes with tracing off. wall_s is the
// fastest pass, not the median one: other tenants of the machine only ever
// slow a pass down, in bursts that outlast a run, and across ten runs in
// such a period the medians spread 0.03-0.11 of their value where the
// minima spread 0.01-0.06. The samples line carries every pass.
func runTimed(w workload, cfg config) (result, error) {
	r := &runner{w: w, scale: cfg.scale, seed: cfg.seed}
	var setups []float64
	for i := 0; i < cfg.setupChildren; i++ {
		s, err := setupInChild(w, cfg.seed)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s.SetupS)
		r.attempted += s.Attempted
		r.failed += s.Failed
		if s.Failed > 0 && r.firstErr == nil {
			r.firstErr = errors.New(s.FirstErr)
		}
	}
	own := r.warmUp(time.Now())
	if len(setups) == 0 {
		setups = []float64{own.Seconds()}
	}
	timed := walls(r.timedPasses(cfg.seconds, cfg.minPasses))
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}

	res := r.result(map[string]metric{
		"wall_s":      {Value: slices.Min(timed), Unit: "s"},
		"setup_s":     {Value: median(setups), Unit: "s"},
		"peak_rss_mb": {Value: rss, Unit: "MB"},
	})
	res.samples = map[string][]float64{"wall_s": timed, "setup_s": setups}
	return res, nil
}

// setupReport is what a -setup-only child prints.
type setupReport struct {
	SetupS    float64 `json:"setup_s"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FirstErr  string  `json:"first_err,omitempty"`
}

func runSetupOnly(w workload, cfg config) error {
	r := &runner{w: w, scale: cfg.scale, seed: cfg.seed}
	elapsed := r.warmUp(processStart)
	rep := setupReport{SetupS: elapsed.Seconds(), Attempted: r.attempted, Failed: r.failed}
	if r.firstErr != nil {
		rep.FirstErr = r.firstErr.Error()
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// setupInChild measures set-up where it is really paid: in a process that
// has done nothing else yet.
func setupInChild(w workload, seed uint64) (setupReport, error) {
	out, err := runSelf("-setup-only", "-workload", w.name, "-seed", fmt.Sprint(seed))
	if err != nil {
		return setupReport{}, err
	}
	var rep setupReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return setupReport{}, fmt.Errorf("bench: reading the set-up child's report: %w", err)
	}
	return rep, nil
}

// runSelf runs this program again with args and returns its standard
// output; the child has ended when it returns. A child that exits non-zero
// after printing (runs failed the oracle) still hands its output back.
func runSelf(args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && len(out) > 0) {
		return nil, fmt.Errorf("bench: running %s %s: %w", exe, strings.Join(args, " "), err)
	}
	return out, nil
}

func printLayerDrivers(cfg config) error {
	vals, err := runLayerDrivers(driverSampleTime(cfg.seconds), cfg.driverSamples)
	if err != nil {
		return err
	}
	for _, d := range perLayer {
		if v, ok := vals[d.Name]; ok {
			fmt.Printf("%-36s %14.3f %s\n", d.Name, v, d.Unit)
		}
	}
	return nil
}

// driverSampleTime gives each sample of the 21 layer drivers seconds×4 ms:
// five apiece come to about half of a traced run; the traced passes take
// the other half.
func driverSampleTime(seconds float64) time.Duration {
	return time.Duration(seconds * 4 * float64(time.Millisecond))
}

// benchmarkJSON is BENCHMARK.json: the driver's contract fixes its keys.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDesc `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"` // no bounds: the zero Bound is left out
}

type workloadDesc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func describeBenchmark() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadDesc{Name: w.name, Why: w.why})
	}
	return b
}

func printBenchmarkJSON() error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(describeBenchmark())
}
