package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile (0..1) of sorted samples by the
// nearest-rank rule: the smallest sample with at least q of the data at or
// below it.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailPercentiles are the tail percentiles a report may quote, lowest first.
var tailPercentiles = []float64{0.90, 0.99, 0.999, 0.9999}

// highestTail picks the highest percentile that still has at least ten
// samples beyond it, so a quoted tail is never one or two outliers.
func highestTail(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= 10-1e-6 { // 1-p is not exact in binary
			best = p
		}
	}
	return best
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the relative distance between the first and third quartiles of
// xs, computed as Python's statistics.quantiles(xs, n=4) does (exclusive
// method), as a share of the median — the steadiness figure the benchmark's
// bounds are judged against.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// windowStats splits a phase into whole one-second windows and reduces each
// to one number; the phase's figure is the median over windows, which one
// collector pause or scheduler hiccup cannot move.
type windowStats struct {
	start, width int64
	n            int
}

func newWindows(start, end, width int64) windowStats {
	return windowStats{start: start, width: width, n: int((end - start) / width)}
}

// index returns the window of timestamp t, or -1 outside the whole windows.
func (w windowStats) index(t int64) int {
	if t < w.start {
		return -1
	}
	i := int((t - w.start) / w.width)
	if i >= w.n {
		return -1
	}
	return i
}
