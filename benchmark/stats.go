package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// tailPercentiles are the candidates for a timing's reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// supportedPercentile returns the highest candidate percentile that has at
// least ten of n samples beyond it, or 0 when not even the median does.
func supportedPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= tailSamples-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile of xs by the nearest-rank rule
// (the smallest sample with at least p% of samples at or below it). It
// sorts xs in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// tailPercentile returns the p-th percentile of xs, failing unless at least
// ten samples lie beyond it (the reported count is len(xs)).
func tailPercentile(xs []float64, p float64) (float64, error) {
	if supportedPercentile(len(xs)) < p {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; only %d samples", p, tailSamples, len(xs))
	}
	return percentile(xs, p), nil
}

// median returns the median of xs (mean of the middle two for even
// counts); it sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// metricName is the charset BENCHMARK.json allows for a metric name.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects reported values by name.
type metrics map[string]metric

// set records a metric, rejecting names outside the allowed charset and
// values that are not finite numbers.
func (m metrics) set(name string, value float64, unit string) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("metric name %q outside [A-Za-z0-9_.-]", name))
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	m[name] = metric{Value: value, Unit: unit}
}
