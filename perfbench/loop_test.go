package main

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A 200ms stall on one op must show in the recorded latency of every
// op that was due during it, not only in the stalled op: latency runs
// from the due time, so the generator cannot hide the queue a stall
// builds (coordinated omission).
func TestOpenLoopCountsStallAgainstLaterOps(t *testing.T) {
	const (
		rate  = 200.0 // one op every 5ms
		stall = 200 * time.Millisecond
	)
	var mu sync.Mutex
	var lat, service []time.Duration
	openLoop(context.Background(), rate, 500*time.Millisecond, 1, func(ctx context.Context, w int, i uint64, due time.Time) {
		start := time.Now()
		if i == 20 {
			time.Sleep(stall)
		}
		mu.Lock()
		defer mu.Unlock()
		service = append(service, time.Since(start))
		lat = append(lat, time.Since(due))
	})
	if len(lat) != 100 {
		t.Fatalf("ran %d ops, want 100 (rate x duration)", len(lat))
	}
	slowService, slowLatency := 0, 0
	for i := range lat {
		if service[i] >= stall/2 {
			slowService++
		}
		if lat[i] >= stall/4 {
			slowLatency++
		}
	}
	if slowService != 1 {
		t.Errorf("%d ops were slow to serve, want 1", slowService)
	}
	// Ops due in the first 150ms of the stall waited at least 50ms.
	if want := int(0.75 * stall.Seconds() * rate); slowLatency < want {
		t.Errorf("%d ops recorded >= %v, want at least %d", slowLatency, stall/4, want)
	}
}

// Lateness is the generator's own delay only: ops that queued behind a
// busy worker are not late.
func TestOpenLoopLatenessExcludesQueueing(t *testing.T) {
	late := openLoop(context.Background(), 200, 300*time.Millisecond, 1, func(ctx context.Context, w int, i uint64, due time.Time) {
		if i == 5 {
			time.Sleep(100 * time.Millisecond)
		}
	})
	l := summarize(late)
	if l.N != 60 {
		t.Fatalf("%d lateness samples, want 60", l.N)
	}
	if l.P50 > 10*time.Millisecond {
		t.Errorf("median generator lateness %v, want well under the 100ms queue", l.P50)
	}
}

func TestClosedLoopRate(t *testing.T) {
	rate, _ := closedLoop(context.Background(), 500*time.Millisecond, 2, 0, func(ctx context.Context, w int) int {
		time.Sleep(10 * time.Millisecond)
		return 3
	})
	// 2 workers x 3 units per 10ms op: about 600 units/s, less sleep overshoot.
	if rate < 300 || rate > 620 {
		t.Errorf("closed-loop rate %.0f units/s, want about 600", rate)
	}
}

// With an op budget the loop sends exactly that many ops and stops
// well before its deadline.
func TestClosedLoopBudget(t *testing.T) {
	var calls atomic.Int64
	start := time.Now()
	rate, _ := closedLoop(context.Background(), 5*time.Second, 2, 30, func(ctx context.Context, w int) int {
		calls.Add(1)
		time.Sleep(time.Millisecond)
		return 1
	})
	if calls.Load() != 30 {
		t.Errorf("%d ops sent, want 30", calls.Load())
	}
	if took := time.Since(start); took > time.Second || rate <= 0 {
		t.Errorf("budgeted loop took %v at %.0f ops/s; want it to stop at its 30 ops", took, rate)
	}
}
