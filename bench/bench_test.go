package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// small is the smoke preset: every workload in a few tens of milliseconds.
// It is reachable only from here; the command line always runs `full`.
var small = scale{
	denseN: 128, denseRuns: 2,
	gossipN:    512,
	allconcurN: 256,
	smrSlots:   16, smrRuns: 1,
	trials: 20, // × 6 cells = 120 trials
}

func smokeConfig(t *testing.T) config {
	return config{
		scale: small, seed: 1, seconds: 0.6, minPasses: 2,
		setupChildren: 0, driverSamples: 1, outDir: t.TempDir(),
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that a result carries exactly the metrics of defs,
// each with its unit, and that no run failed.
func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.firstErr)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not reported", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s: unit %q, want %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is %v", d.Name, m.Value)
		}
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
		}
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the metric and
// workload tables it is printed from (bench -describe > BENCHMARK.json).
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	printed, err := json.Marshal(describeBenchmark())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(printed, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Fatal("BENCHMARK.json differs from the tables in metrics.go and workloads.go; regenerate it with -describe")
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
}

// TestSmoke runs all five workloads both ways at the smoke preset.
func TestSmoke(t *testing.T) {
	drivers, err := runLayerDrivers(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var unbilled, cpuSamples float64
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			timed, err := runTimed(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, timed, endToEnd)
			for _, name := range []string{"wall_s", "setup_s", "peak_rss_mb"} {
				if timed.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, timed.Metrics[name].Value)
				}
			}

			// The traced passes fail the run themselves when an exact count
			// differs between two passes.
			traced, err := tracedPasses(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, traced.result(drivers), perLayer)
			sum := 0.0
			for _, l := range cpuLayers {
				sum += traced.values["cpu_share."+l]
			}
			// A profile of a few milliseconds may hold no sample at all.
			if sum != 0 && math.Abs(sum-1) > 0.01 {
				t.Errorf("cpu_share.* sums to %v, want 1", sum)
			}
			if traced.values["vclock.steps"] <= 0 || traced.values["harness.runs"] <= 0 {
				t.Errorf("no steps or runs counted: %v", traced.values)
			}

			data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			calls := 0
			for _, sp := range tf.Spans {
				if sp.EndNS < sp.StartNS {
					t.Errorf("span %s ends before it starts", sp.Name)
				}
				if sp.Name == "protocol.Run" || sp.Name == "harness.Sweep" {
					calls++
				}
			}
			if calls == 0 {
				t.Error("the trace holds no span around a call into the system")
			}
			unbilled += (traced.values["cpu_share.other"] + traced.values["cpu_share.runtime_bg"]) * float64(tf.CPUSamples)
			cpuSamples += float64(tf.CPUSamples)
		})
	}
	// A smoke pass is a few milliseconds, so one workload's profile holds a
	// handful of samples; the five together hold enough to ask that most of
	// the CPU is billed to a layer.
	if share := unbilled / cpuSamples; !(share < 0.5) {
		t.Errorf("other + runtime_bg = %.2f of %v CPU samples, want < 0.5", share, cpuSamples)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestProfileReaderAgreesWithPprof captures a CPU profile and checks the
// hand-rolled reader against `go tool pprof -top` on its leading function.
func TestProfileReaderAgreesWithPprof(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	flat := map[string]int64{}
	for _, s := range samples {
		if len(s.funcs) > 0 {
			flat[s.funcs[0]] += s.count
		}
	}
	leader, most := "", int64(0)
	for fn, n := range flat {
		if n > most {
			leader, most = fn, n
		}
	}
	if !strings.HasSuffix(leader, ".spin") {
		t.Fatalf("leading function %q (%d samples), want spin", leader, most)
	}

	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", path).Output()
	if err != nil {
		t.Skipf("go tool pprof is not available: %v", err)
	}
	lines := strings.Split(string(out), "\n")
	for i, line := range lines {
		if strings.Contains(line, "flat%") && i+1 < len(lines) {
			fields := strings.Fields(lines[i+1])
			if got := fields[len(fields)-1]; got != leader {
				t.Fatalf("go tool pprof -top leads with %q, the reader with %q", got, leader)
			}
			return
		}
	}
	t.Fatalf("no table in go tool pprof -top output:\n%s", out)
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"slices.pdqsortOrdered[go.shape.uint64]", "allforone/internal/netsim.(*fanJob).ExpandShard", "allforone/internal/vclock.(*Scheduler).worker"}, "netsim"},
		{[]string{"runtime.mallocgc", "allforone/internal/consensusobj.New", "allforone/internal/core.Run"}, "shmem"},
		{[]string{"allforone/internal/model.Blocks", "main.genHybridDense", "main.benchOwn", "main.main"}, layerBench},
		{[]string{"allforone/internal/failures.(*Schedule).Plan", "allforone/internal/core.step"}, "other"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime_bg"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	wall := metricDef{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.10}
	st := func(v, lo, hi float64) stat { return stat{metric: metric{Value: v}, N: 7, Min: lo, Max: hi} }
	for _, c := range []struct {
		old, new stat
		want     string
	}{
		{st(1, 0.98, 1.02), st(1.05, 1.03, 1.07), verdictSame},
		{st(1, 0.98, 1.02), st(1.2, 1.18, 1.22), verdictWorse},
		{st(1, 0.98, 1.02), st(0.8, 0.78, 0.82), verdictBetter},
		{st(1, 0.9, 1.3), st(1.2, 1.18, 1.22), verdictUnresolved}, // old side spreads 0.4 and the ranges overlap
		{st(1, 0.9, 1.1), st(1.3, 1.2, 1.5), verdictWorse},        // wide, but every new sample is slower than every old one
	} {
		if got := verdict(wall, c.old, c.new); got != c.want {
			t.Errorf("verdict(%v → %v) = %s, want %s", c.old.Value, c.new.Value, got, c.want)
		}
	}
}
