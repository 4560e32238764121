package main

import (
	"math"
	"sort"
)

// minTail is the percentile discipline: a percentile is reported only
// when at least this many samples lie beyond it.
const minTail = 10

// failed is the latency recorded for an operation that did not succeed
// (shed, error, wrong answer, lost connection, never sent): it exceeds
// every latency limit.
var failed = math.Inf(1)

// percentile returns the nearest-rank q-quantile of sorted values and
// whether at least minTail samples lie beyond it. Without enough tail
// samples the value is 0 and ok is false.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = min(max(idx, 0), n-1)
	if n-1-idx < minTail {
		return 0, false
	}
	return sorted[idx], true
}

// sortedCopy returns values sorted ascending (+Inf last).
func sortedCopy(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

// median of values (0 for none); values need not be sorted.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sortedCopy(values)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean of values (0 for none).
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
