package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// a tail percentile backed by fewer samples is one or two outliers, not
// a property of the system.
const minTail = 10

// tailLadder lists the tail percentiles a timing may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// supportedTail returns the highest percentile of tailLadder that
// leaves at least minTail of n samples beyond it, or 0 when even the
// lowest rung is unsupported.
func supportedTail(n int) float64 {
	for _, p := range tailLadder {
		if tailCount(n, p) >= minTail {
			return p
		}
	}
	return 0
}

// tailCount is how many of n samples lie beyond percentile p, with the
// rounding error of 1-p/100 removed.
func tailCount(n int, p float64) float64 {
	return math.Round(float64(n)*(100-p)*1e6/100) / 1e6
}

// percentile interpolates linearly between the closest ranks of sorted
// (the method of Python's statistics.quantiles "inclusive" and of
// numpy's default).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the middle of xs (which it does not modify).
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 50)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// timing summarizes one sample of durations by the reporting rule: the
// median, the highest percentile with at least minTail samples beyond
// it, and the sample count.
type timing struct {
	N      int
	Median float64
	Tail   float64 // the percentile reported; 0 when n is too small
	TailAt float64
}

func summarize(xs []float64) timing {
	s := sortedCopy(xs)
	t := timing{N: len(s), Median: percentile(s, 50), Tail: supportedTail(len(s))}
	if t.Tail > 0 {
		t.TailAt = percentile(s, t.Tail)
	}
	return t
}

func (t timing) String() string {
	if t.Tail == 0 {
		return fmt.Sprintf("p50 %.4g (n=%d, too few samples for a tail percentile)", t.Median, t.N)
	}
	return fmt.Sprintf("p50 %.4g, p%g %.4g (n=%d)", t.Median, t.Tail, t.TailAt, t.N)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
