package main

import (
	"math"
	"testing"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// TestSupportedTailLeavesTenBeyond checks the rule itself: at the chosen
// percentile at least minTail samples lie strictly above the value, and
// at the next rung up fewer would.
func TestSupportedTailLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{40, 57, 100, 321, 1000, 4321} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		tm := summarize(xs)
		beyond := 0
		for _, x := range xs {
			if x > tm.TailAt {
				beyond++
			}
		}
		if beyond < minTail {
			t.Errorf("n=%d: p%g leaves %d samples beyond it, want ≥ %d", n, tm.Tail, beyond, minTail)
		}
		for i, p := range tailLadder {
			if p == tm.Tail && i > 0 && tailCount(n, tailLadder[i-1]) >= minTail {
				t.Errorf("n=%d: p%g chosen although p%g is supported", n, p, tailLadder[i-1])
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {25, 1.75}, {90, 3.7}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", s, c.p, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}
