// The -workers-sweep mode: the multi-core scaling curve (DESIGN.md §12).
// It runs a fixed cell set — the dense hybrid path (SendAll fanout
// expansion) and both sparse-overlay protocols (per-recipient bursts,
// allconcur additionally building pooled payloads off-token) — at
// expansion-pool widths W ∈ {1, 2, 4, 8}, checks that every width
// reproduces the W=1 Outcome bit for bit (the parallelism-independence
// contract, enforced here as a hard failure), and reports wall seconds,
// events/sec, and the W-vs-1 speedup per cell. The figures are
// machine-dependent; the equality check is not.
package main

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/overlay"
	"allforone/internal/protocol"
)

// sweepWidths is the expansion-pool width axis of the scaling curve.
var sweepWidths = []int{1, 2, 4, 8}

// jsonSweepRun is one (cell, width) measurement.
type jsonSweepRun struct {
	Workers      int     `json:"workers"`
	Seconds      float64 `json:"seconds"`
	Steps        int64   `json:"steps"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// jsonSweepCell is one scenario's row of the curve.
type jsonSweepCell struct {
	Name     string         `json:"name"`
	Protocol string         `json:"protocol"`
	N        int            `json:"n"`
	Runs     []jsonSweepRun `json:"runs"`
	// Identical reports that every width's Outcome DeepEqual-matched the
	// W=1 reference — decisions, traces, and scheduler counters included.
	Identical bool `json:"identical"`
	// SpeedupW4 is seconds(W=1)/seconds(W=4): the headline scaling figure.
	// Meaningful only on a ≥4-core runner (see GOMAXPROCS).
	SpeedupW4 float64 `json:"speedup_w4_over_w1,omitempty"`
	// BurstJobs / PooledPayloadBytes pin that the cell expanded off-token
	// (expansion windows registered) and whether it built payloads there.
	BurstJobs          int64 `json:"burst_jobs"`
	PooledPayloadBytes int64 `json:"pooled_payload_bytes"`
}

// jsonSweep is the workers_sweep document section.
type jsonSweep struct {
	GOMAXPROCS int             `json:"gomaxprocs"`
	Widths     []int           `json:"widths"`
	Cells      []jsonSweepCell `json:"cells"`
}

// sweepCell names one scenario of the curve.
type sweepCell struct {
	name     string
	protocol string
	n        int
	build    func(workers int) (protocol.Scenario, error)
}

// sweepCells builds the cell set. sparseN is the sparse-overlay scale —
// 4096 by default (the ISSUE's floor for at least one cell), lowerable
// for CI smoke runs.
func sweepCells(sparseN int) []sweepCell {
	return []sweepCell{
		{
			name: "hybrid-dense", protocol: "hybrid", n: 1024,
			build: func(workers int) (protocol.Scenario, error) {
				const n = 1024
				part, err := model.Blocks(n, 10)
				if err != nil {
					return protocol.Scenario{}, err
				}
				binary := make([]model.Value, n)
				for i := range binary {
					binary[i] = model.Value(int8(i % 2))
				}
				sched := failures.NewSchedule(n)
				for p := 0; p < 8; p++ {
					if err := sched.SetTimed(model.ProcID(p*(n/8)+1), 150*time.Microsecond); err != nil {
						return protocol.Scenario{}, err
					}
				}
				return protocol.Scenario{
					Protocol: "hybrid",
					Topology: protocol.Topology{Partition: part},
					Workload: protocol.Workload{Binary: binary},
					Faults:   sched,
					Profile:  protocol.Uniform(50*time.Microsecond, 2*time.Millisecond),
					Seed:     4099,
					Workers:  workers,
					Bounds:   protocol.Bounds{MaxRounds: 10_000},
				}, nil
			},
		},
		{
			name: "gossip-sparse", protocol: "gossip", n: sparseN,
			build: func(workers int) (protocol.Scenario, error) {
				w := protocol.Workload{Binary: make([]model.Value, sparseN)}
				w.Binary[sparseN/2] = model.One
				return protocol.Scenario{
					Protocol: "gossip",
					Topology: protocol.Topology{
						N:       sparseN,
						Overlay: &overlay.Spec{Kind: overlay.KindDeBruijn},
					},
					Workload: w,
					Profile:  protocol.Uniform(0, 200*time.Microsecond),
					Seed:     1303,
					Workers:  workers,
					Bounds:   protocol.Bounds{Timeout: 300 * time.Second},
				}, nil
			},
		},
		{
			name: "allconcur-sparse", protocol: "allconcur", n: sparseN,
			build: func(workers int) (protocol.Scenario, error) {
				w := protocol.Workload{}
				for i := 0; i < sparseN; i++ {
					w.Values = append(w.Values, fmt.Sprintf("v%d", i))
				}
				sched := failures.NewSchedule(sparseN)
				for _, p := range []model.ProcID{model.ProcID(sparseN / 10), model.ProcID(sparseN / 2)} {
					if err := sched.SetTimed(p, 150*time.Microsecond); err != nil {
						return protocol.Scenario{}, err
					}
				}
				return protocol.Scenario{
					Protocol: "allconcur",
					Topology: protocol.Topology{
						N:       sparseN,
						Overlay: &overlay.Spec{Kind: overlay.KindDeBruijn},
					},
					Workload: w,
					Faults:   sched,
					Profile:  protocol.Uniform(0, 200*time.Microsecond),
					Seed:     1303,
					Workers:  workers,
					Bounds:   protocol.Bounds{Timeout: 300 * time.Second},
				}, nil
			},
		},
	}
}

// runWorkersSweep executes the scaling curve and returns the document
// section. Any width diverging from the W=1 Outcome is a hard error —
// the sweep doubles as the cross-width equality gate.
func runWorkersSweep(sparseN int) (*jsonSweep, error) {
	sweep := &jsonSweep{GOMAXPROCS: runtime.GOMAXPROCS(0), Widths: sweepWidths}
	for _, cell := range sweepCells(sparseN) {
		row := jsonSweepCell{Name: cell.name, Protocol: cell.protocol, N: cell.n, Identical: true}
		var ref *protocol.Outcome
		var w1, w4 float64
		for _, w := range sweepWidths {
			sc, err := cell.build(w)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cell.name, err)
			}
			start := time.Now()
			out, err := protocol.Run(sc)
			secs := time.Since(start).Seconds()
			if err != nil {
				return nil, fmt.Errorf("%s W=%d: %w", cell.name, w, err)
			}
			run := jsonSweepRun{Workers: w, Seconds: secs, Steps: out.Steps}
			if secs > 0 {
				run.EventsPerSec = float64(out.Steps) / secs
			}
			row.Runs = append(row.Runs, run)
			switch w {
			case 1:
				ref = out
				w1 = secs
				row.BurstJobs = out.Sched.BurstJobs
				row.PooledPayloadBytes = out.Sched.PooledPayloadBytes
			case 4:
				w4 = secs
			}
			if ref != out && !reflect.DeepEqual(ref, out) {
				row.Identical = false
			}
		}
		if w4 > 0 {
			row.SpeedupW4 = w1 / w4
		}
		if !row.Identical {
			return nil, fmt.Errorf("%s: Outcome diverged across Workers widths — parallelism-independence contract broken", cell.name)
		}
		sweep.Cells = append(sweep.Cells, row)
	}
	return sweep, nil
}

// renderSweep prints the human-readable curve.
func renderSweep(s *jsonSweep, out io.Writer) {
	fmt.Fprintf(out, "workers scaling curve — GOMAXPROCS=%d (speedups need ≥4 cores to mean anything)\n", s.GOMAXPROCS)
	for _, cell := range s.Cells {
		fmt.Fprintf(out, "%-16s n=%-6d burst_jobs=%-8d pooled_bytes=%d\n",
			cell.Name, cell.N, cell.BurstJobs, cell.PooledPayloadBytes)
		for _, r := range cell.Runs {
			fmt.Fprintf(out, "  W=%d  %8.3fs  %10.3g events/sec\n", r.Workers, r.Seconds, r.EventsPerSec)
		}
		fmt.Fprintf(out, "  identical across widths: %v; W=4 speedup %.2fx\n", cell.Identical, cell.SpeedupW4)
	}
}
