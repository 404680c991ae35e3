package main

import (
	"context"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"diggsim/internal/load"
)

// op runs one scheduled operation on worker w. due is when the
// operation was scheduled to start; the op times itself from due, not
// from when it actually started, so a stall that delays later ops
// counts against every one of them.
type op func(ctx context.Context, w int, i uint64, due time.Time)

// openLoop offers ops at a fixed rate for d, from workers goroutines
// sharing one schedule: a free worker takes the next op in schedule
// order, sleeps until it is due, and runs it. When every worker is
// busy, due ops queue and their recorded latency grows; the offered
// load never drops. Ops due inside d all run, even when the backlog
// carries them past d.
//
// It returns the generator's own lateness per op: how long after it
// could have been sent (its due time, or when a worker came free,
// whichever is later) it actually was. Waiting for a busy worker is
// the servers' doing and is not lateness. Both stay in the op's
// latency.
//
// Workers wait with nanosleep, not a runtime timer: runtime timers
// wake up to a millisecond late here, which would add about half a
// millisecond to every sub-millisecond read.
func openLoop(ctx context.Context, rate float64, d time.Duration, workers int, fn op) []time.Duration {
	pacer := load.NewPacer(rate, 0)
	var next atomic.Uint64
	late := make([][]time.Duration, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				free := time.Now()
				i := next.Add(1) - 1
				offset := pacer.At(i)
				if offset >= d {
					return
				}
				due := start.Add(offset)
				if wait := time.Until(due); wait > 0 {
					ts := syscall.NsecToTimespec(int64(wait))
					_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait; lateness records it
				}
				late[w] = append(late[w], time.Since(maxTime(due, free)))
				fn(ctx, w, i, due)
			}
		}()
	}
	wg.Wait()
	var out []time.Duration
	for _, l := range late {
		out = append(out, l...)
	}
	return out
}

// closedLoopWindows is how many windows the closed-loop phase is split
// into; the reported rate is their median.
const closedLoopWindows = 5

// closedLoop runs fn back to back on workers goroutines: each worker
// sends its next op only after the previous one completes. It stops
// once d has passed or, when ops > 0, once ops ops have been sent,
// whichever comes first. fn returns how many units of work its op
// completed. The result is the median, over closedLoopWindows equal
// windows of the loop's span, of units completed per second, so a
// burst of outside interference spoils one window, not the figure.
func closedLoop(ctx context.Context, d time.Duration, workers, ops int, fn func(ctx context.Context, w int) int) (rate float64, windows []float64) {
	start := time.Now()
	deadline := start.Add(d)
	var sent atomic.Int64
	done := make([][]completion, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				if ops > 0 && sent.Add(1) > int64(ops) {
					return
				}
				n := fn(ctx, w)
				done[w] = append(done[w], completion{time.Now(), n})
			}
		}()
	}
	wg.Wait()
	var span time.Duration
	for _, cs := range done {
		for _, c := range cs {
			span = max(span, c.at.Sub(start))
		}
	}
	counts := make([]float64, closedLoopWindows)
	if span == 0 {
		return 0, counts
	}
	for _, cs := range done {
		for _, c := range cs {
			i := min(int(c.at.Sub(start)*closedLoopWindows/span), closedLoopWindows-1)
			counts[i] += float64(c.n)
		}
	}
	for i := range counts {
		counts[i] /= span.Seconds() / closedLoopWindows
	}
	return median(counts), counts
}

type completion struct {
	at time.Time
	n  int
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
