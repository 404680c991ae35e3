package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// clockTick is the unit of utime and stime in /proc/<pid>/stat
// (USER_HZ, 100 on Linux).
const clockTick = 10 * time.Millisecond

// procCPU is the CPU time (user + system, every thread) process pid
// has used. The kernel scales it to the scheduler's run time, which
// leaves out the steal time it is told of (time the hypervisor gave
// the vCPU to another guest), so it moves far less with the host's
// load than wall-clock time does; see README.md for how much it still
// moves.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	d, err := parseStatCPU(string(b))
	if err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return d, nil
}

// parseStatCPU reads utime + stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) is in parentheses
// and may itself hold spaces and parentheses, so fields are counted
// from the last ')'.
func parseStatCPU(line string) (time.Duration, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, fmt.Errorf("no command name in %q", line)
	}
	f := strings.Fields(line[i+1:]) // f[0] is field 3, the state
	if len(f) < 13 {
		return 0, fmt.Errorf("%d fields after the command name, want at least 13", len(f))
	}
	var ticks int64
	for _, x := range f[11:13] {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * clockTick, nil
}

// cpuTimes is the CPU time used so far by this load process and by
// each of the fleet's servers, in that order.
func (f fleet) cpuTimes() ([]time.Duration, error) {
	pids := []int{os.Getpid()}
	for _, s := range f {
		pids = append(pids, s.cmd.Process.Pid)
	}
	out := make([]time.Duration, len(pids))
	for i, pid := range pids {
		d, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// hostTicks is the host-wide /proc/stat "cpu" line: all ticks, and
// those the hypervisor stole.
type hostTicks struct{ total, steal int64 }

func readHostTicks() hostTicks {
	var h hostTicks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	for i, x := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseInt(x, 10, 64)
		if i < 8 {
			h.total += n
		}
		if i == 7 {
			h.steal = n
		}
	}
	return h
}

// phaseCost is what the load process and each of the fleet's servers
// (in that order) used over one measured phase: CPU time and heap
// allocations, and the share of the host's CPU stolen meanwhile.
type phaseCost struct {
	names []string
	cpu   []time.Duration
	alloc []allocs
	steal float64
}

// costSample is the counters phaseCost is the difference of.
type costSample struct {
	cpu   []time.Duration
	alloc []allocs
	host  hostTicks
}

func (f fleet) sampleCost(ctx context.Context) (costSample, error) {
	cpu, err := f.cpuTimes()
	if err != nil {
		return costSample{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc := []allocs{{bytes: ms.TotalAlloc, objects: ms.Mallocs}}
	for _, s := range f {
		a, err := s.allocated(ctx)
		if err != nil {
			return costSample{}, err
		}
		alloc = append(alloc, a)
	}
	return costSample{cpu: cpu, alloc: alloc, host: readHostTicks()}, nil
}

// measureCost runs phase and returns what the load process and the
// fleet's servers used meanwhile.
func (f fleet) measureCost(ctx context.Context, phase func()) (phaseCost, error) {
	c := phaseCost{names: []string{"load"}}
	for _, s := range f {
		c.names = append(c.names, s.name)
	}
	before, err := f.sampleCost(ctx)
	if err != nil {
		return c, err
	}
	phase()
	after, err := f.sampleCost(ctx)
	if err != nil {
		return c, err
	}
	for i := range after.cpu {
		c.cpu = append(c.cpu, after.cpu[i]-before.cpu[i])
		c.alloc = append(c.alloc, allocs{
			bytes:   after.alloc[i].bytes - before.alloc[i].bytes,
			objects: after.alloc[i].objects - before.alloc[i].objects,
		})
	}
	if after.host.total > before.host.total {
		c.steal = float64(after.host.steal-before.host.steal) / float64(after.host.total-before.host.total)
	}
	return c, nil
}
