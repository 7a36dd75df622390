// Package stats provides the descriptive statistics and text-table
// rendering used by the experiment harness to report results in the shape
// a paper's evaluation section would (per-cell means, percentiles, and
// aligned rows per configuration).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmptySample is returned by statistics over empty samples.
var ErrEmptySample = errors.New("stats: empty sample")

// Mean returns the arithmetic mean.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// StdDev returns the sample standard deviation (n-1 denominator); it is 0
// for samples of size 1.
func StdDev(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	if len(xs) == 1 {
		return 0, nil
	}
	m, _ := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1)), nil
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between closest ranks.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of [0,100]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 50th percentile.
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }

// MinMax returns the extremes of the sample.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmptySample
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Summary bundles the descriptive statistics of one sample.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	P95    float64
	StdDev float64
	Min    float64
	Max    float64
}

// Describe computes a Summary.
func Describe(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmptySample
	}
	mean, _ := Mean(xs)
	median, _ := Median(xs)
	p95, _ := Percentile(xs, 95)
	sd, _ := StdDev(xs)
	min, max, _ := MinMax(xs)
	return Summary{
		N: len(xs), Mean: mean, Median: median, P95: p95,
		StdDev: sd, Min: min, Max: max,
	}, nil
}
