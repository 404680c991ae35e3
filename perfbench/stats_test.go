package main

import (
	"testing"
	"time"
)

func TestRankOfIsNearestRank(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want int
	}{
		{50, 1, 0}, {50, 2, 0}, {50, 3, 1}, {50, 100, 49},
		{99, 100, 98}, {99, 1000, 989}, {99.9, 1000, 998}, {90, 10, 8},
	} {
		if got := rankOf(c.p, c.n); got != c.want {
			t.Errorf("rankOf(%g, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

// A percentile is reported only when at least ten samples lie above it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {21, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, p, beyond(p, c.n))
		}
	}
}

func TestSummarizeExactQuantiles(t *testing.T) {
	var s []time.Duration
	for i := 1000; i >= 1; i-- { // unsorted input
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	l := summarize(s)
	if l.N != 1000 || l.P50 != 500*time.Millisecond || l.Max != time.Second {
		t.Fatalf("summarize = %+v", l)
	}
	if l.TailPct != 99 || l.Tail != 990*time.Millisecond || !l.p99Valid() {
		t.Errorf("tail p%g = %v, want p99 = 990ms", l.TailPct, l.Tail)
	}
	if summarize(s[:999]).p99Valid() {
		t.Error("p99 of 999 samples has 9 above it and must not count as valid")
	}
}

func TestErrorRatio(t *testing.T) {
	var total tally
	total.add(tally{Attempted: 900, Failed: 0, Rejected: 40})
	total.add(tally{Attempted: 100, Failed: 5})
	if total.Attempted != 1000 || total.Failed != 5 || total.Rejected != 40 {
		t.Fatalf("tally = %+v", total)
	}
	// Rejections (repeat votes) are expected outcomes, not failures.
	if got := total.errorRatio(); got != 0.005 {
		t.Errorf("errorRatio = %g, want 0.005", got)
	}
	if got := (tally{}).errorRatio(); got != 0 {
		t.Errorf("errorRatio of nothing = %g, want 0", got)
	}
}
