package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// report is what a full invocation (no -workload) writes to
// bench/out/report.json, and what -compare reads.
type report struct {
	Env       env              `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

// env records the machine and the pinned widths a report was measured at.
type env struct {
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	SweepPar   int     `json:"sweep_parallelism"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

type workloadReport struct {
	Name      string            `json:"name"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]stat   `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

// stat is an end-to-end metric with the sample behind it: its count,
// minimum, median and maximum. Ten or so samples support no tail
// percentile, so none is given.
type stat struct {
	metric
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

// runReport runs every workload twice — tracing off, then traced — each in
// a fresh child process, one at a time, so heap state and peak RSS are per
// workload and nothing else generates load while one measures.
func runReport(cfg config) error {
	rep := report{Env: env{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: maxProcs,
		Workers: workers, SweepPar: sweepPar, Seed: cfg.seed, Seconds: cfg.seconds,
	}}
	failed := false
	for _, w := range workloads {
		wr := workloadReport{Name: w.name, EndToEnd: map[string]stat{}}
		for trace := 0; trace <= 1; trace++ {
			fmt.Fprintf(os.Stderr, "bench: %s --trace %d\n", w.name, trace)
			res, samples, err := runWorkloadChild(w, cfg, trace)
			if err != nil {
				return err
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if trace == 1 {
				wr.PerLayer = res.Metrics
				continue
			}
			for name, m := range res.Metrics {
				st := stat{metric: m, N: 1, Min: m.Value, Median: m.Value, Max: m.Value}
				if xs := samples[name]; len(xs) > 0 {
					st.N, st.Min, st.Median, st.Max = len(xs), slices.Min(xs), median(xs), slices.Max(xs)
				}
				wr.EndToEnd[name] = st
			}
		}
		failed = failed || wr.Failed > 0
		rep.Workloads = append(rep.Workloads, wr)
	}

	printReport(rep)
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	path := filepath.Join(cfg.outDir, "report.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	fmt.Printf("\nreport written to %s\n", path)
	if failed {
		return errRunsFailed
	}
	return nil
}

// runWorkloadChild runs one workload in a child and reads back its result
// line and the samples line before it.
func runWorkloadChild(w workload, cfg config, trace int) (result, map[string][]float64, error) {
	out, err := runSelf("-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace), "-out", cfg.outDir)
	if err != nil {
		return result{}, nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, nil, fmt.Errorf("bench: %s --trace %d printed no result: %w", w.name, trace, err)
	}
	var samples map[string][]float64
	for _, line := range lines {
		if rest, ok := bytes.CutPrefix(line, []byte("samples ")); ok {
			if err := json.Unmarshal(rest, &samples); err != nil {
				return result{}, nil, fmt.Errorf("bench: %s: reading the samples line: %w", w.name, err)
			}
		}
	}
	return res, samples, nil
}

func printReport(rep report) {
	e := rep.Env
	fmt.Printf("%s, nproc %d, GOMAXPROCS %d, Workers %d, Sweep parallelism %d, seed %d, %g s per run\n",
		e.GoVersion, e.NProc, e.GOMAXPROCS, e.Workers, e.SweepPar, e.Seed, e.Seconds)
	for _, wr := range rep.Workloads {
		fmt.Printf("\n%s: %d runs attempted, %d failed\n", wr.Name, wr.Attempted, wr.Failed)
		for _, d := range endToEnd {
			st := wr.EndToEnd[d.Name]
			fmt.Printf("  %-36s %14.4f %-5s (n=%d: min %.4f, median %.4f, max %.4f; bound %.2f)\n",
				d.Name, st.Value, st.Unit, st.N, st.Min, st.Median, st.Max, d.Bound)
		}
		for _, d := range perLayer {
			m := wr.PerLayer[d.Name]
			fmt.Printf("  %-36s %14.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
}

func loadReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, fmt.Errorf("bench: %w", err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("bench: %s: %w", path, err)
	}
	return rep, nil
}

// Verdicts of -compare on one end-to-end metric of one workload.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict compares a new median with an old one against the metric's
// bound. A change beyond the bound is unresolved, not better or worse, when
// a side's own samples spread wider than the bound and the two sides'
// ranges overlap.
func verdict(d metricDef, old, new stat) string {
	if old.Value == 0 {
		return verdictUnresolved
	}
	change := new.Value/old.Value - 1
	if d.Better == higher {
		change = -change
	}
	if change <= d.Bound && change >= -d.Bound {
		return verdictSame
	}
	spread := func(s stat) float64 { return (s.Max - s.Min) / s.Value }
	if (spread(old) > d.Bound || spread(new) > d.Bound) && old.Min <= new.Max && new.Min <= old.Max {
		return verdictUnresolved
	}
	if change > 0 {
		return verdictWorse
	}
	return verdictBetter
}

// compareReports prints, per workload and end-to-end metric, both medians,
// their ratio, the bound and the verdict; then every exact count that
// differs. It fails on any `worse` and on any rise of the failed share.
func compareReports(oldPath, newPath string) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	var regressions []string
	var changed []string
	fmt.Printf("%-18s %-12s %12s %12s %18s %6s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, nw := range newRep.Workloads {
		i := slices.IndexFunc(oldRep.Workloads, func(w workloadReport) bool { return w.Name == nw.Name })
		if i < 0 {
			fmt.Printf("%-18s only in %s\n", nw.Name, newPath)
			continue
		}
		ow := oldRep.Workloads[i]
		for _, d := range endToEnd {
			o, n := ow.EndToEnd[d.Name], nw.EndToEnd[d.Name]
			v := verdict(d, o, n)
			fmt.Printf("%-18s %-12s %12.4f %12.4f %9.3f of %-6.4g %6.2f  %s\n",
				nw.Name, d.Name, o.Value, n.Value, n.Value/o.Value, o.Value, d.Bound, v)
			if v == verdictWorse {
				regressions = append(regressions, nw.Name+" "+d.Name)
			}
		}
		oldShare := float64(ow.Failed) / float64(max(ow.Attempted, 1))
		newShare := float64(nw.Failed) / float64(max(nw.Attempted, 1))
		fmt.Printf("%-18s %-12s %12.6f %12.6f   (%d of %d runs, was %d of %d)\n",
			nw.Name, "failed_share", oldShare, newShare, nw.Failed, nw.Attempted, ow.Failed, ow.Attempted)
		if newShare > oldShare {
			regressions = append(regressions, nw.Name+" failed_share")
		}
		for _, d := range exactCounts {
			if o, n := ow.PerLayer[d.Name].Value, nw.PerLayer[d.Name].Value; o != n {
				changed = append(changed, fmt.Sprintf("%-18s %-30s %16.6g -> %.6g", nw.Name, d.Name, o, n))
			}
		}
	}
	if len(changed) > 0 {
		fmt.Printf("\nsimulated behaviour changed (exact counts that differ):\n%s\n", strings.Join(changed, "\n"))
	} else {
		fmt.Printf("\nevery exact count (vclock.*, netsim.*, sim.*) is identical\n")
	}
	if len(regressions) > 0 {
		return fmt.Errorf("bench: regression beyond the bound: %s", strings.Join(regressions, ", "))
	}
	return nil
}
