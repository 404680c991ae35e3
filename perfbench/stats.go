package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie strictly above a percentile
// before the benchmark reports it: a tail read from fewer samples is
// one or two outliers, not a percentile.
const minBeyond = 10

// tailCandidates are the percentiles a latency report may name as its
// tail, highest first.
var tailCandidates = []float64{99.9, 99, 90, 50}

// rankOf is the nearest-rank index of percentile p in n sorted samples:
// the smallest index i with (i+1)/n >= p/100.
func rankOf(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*1000 = 999.0000000000001)
	// from moving an exact rank up by one.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// beyond is how many of n sorted samples lie above the nearest-rank
// percentile p.
func beyond(p float64, n int) int { return n - 1 - rankOf(p, n) }

// tailPercentile is the highest candidate percentile with at least
// minBeyond samples above it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n > 0 && beyond(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// latency summarizes raw samples with exact nearest-rank quantiles.
// Histograms are not used: log-linear buckets carry up to 25% error,
// more than the benchmark's bounds.
type latency struct {
	N       int
	P50     time.Duration
	TailPct float64 // highest percentile with minBeyond samples above it
	Tail    time.Duration
	Max     time.Duration
}

func summarize(samples []time.Duration) latency {
	s := slices.Clone(samples)
	slices.Sort(s)
	l := latency{N: len(s)}
	if len(s) == 0 {
		return l
	}
	l.P50 = s[rankOf(50, len(s))]
	l.TailPct = tailPercentile(len(s))
	if l.TailPct > 0 {
		l.Tail = s[rankOf(l.TailPct, len(s))]
	}
	l.Max = s[len(s)-1]
	return l
}

// sample is one latency measurement and when its operation was due.
type sample struct {
	at time.Time
	d  time.Duration
}

// p99Valid reports whether the p99 has minBeyond samples above it.
func (l latency) p99Valid() bool { return l.N > 0 && beyond(99, l.N) >= minBeyond }

func (l latency) String() string {
	return fmt.Sprintf("p50=%.3fms p%g=%.3fms max=%.3fms n=%d",
		ms(l.P50), l.TailPct, ms(l.Tail), ms(l.Max), l.N)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts operations against the number attempted. A rejection
// is an expected per-item outcome (a repeated vote), not a failure.
type tally struct {
	Attempted int
	Failed    int
	Rejected  int
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Rejected += o.Rejected
}

// errorRatio is failed / attempted, 0 when nothing was attempted.
func (t tally) errorRatio() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// median of float samples (mean of the middle pair for even counts).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
