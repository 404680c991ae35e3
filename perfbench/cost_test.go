package main

import (
	"context"
	"os"
	"testing"
	"time"
)

// utime and stime are fields 14 and 15 however many spaces and
// parentheses the command name (field 2) holds.
func TestParseStatCPU(t *testing.T) {
	line := "4242 (di) gg d) S 1 4242 4242 0 -1 4194560 100 0 0 0 123 45 0 0 20 0 9 0 77 1000 200\n"
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 168 * clockTick; got != want {
		t.Errorf("parseStatCPU = %v, want %v", got, want)
	}
	if _, err := parseStatCPU("4242 (diggd) S 1 2"); err == nil {
		t.Error("a short line parsed without error")
	}
}

// The load process's own CPU time grows while it computes.
func TestProcCPUCountsWork(t *testing.T) {
	before, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 100*time.Millisecond; {
		x++
	}
	after, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if after-before < 5*clockTick {
		t.Errorf("100ms of work (%d loops) added %v of CPU time", x, after-before)
	}
}

// measureCost counts the load process's own CPU time and allocations.
func TestMeasureCostCountsPhase(t *testing.T) {
	var sink [][]byte
	c, err := fleet{}.measureCost(context.Background(), func() {
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			sink = append(sink, make([]byte, 1000))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.cpu) != 1 || c.cpu[0] < 10*clockTick {
		t.Errorf("cpu = %v, want the load process's 300ms of work", c.cpu)
	}
	if n := uint64(len(sink)); c.alloc[0].objects < n || c.alloc[0].bytes < 1000*n {
		t.Errorf("alloc = %+v, want at least %d objects of 1000 B", c.alloc[0], n)
	}
}
