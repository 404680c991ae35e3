package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// server is one diggd process under test.
type server struct {
	name  string
	url   string
	pprof string // diggd's -pprof listener, which serves its allocation counters
	cmd   *exec.Cmd
	log   *os.File
	exit  chan error // receives cmd.Wait's result once
}

// startServer spawns diggd on a free loopback port with the given
// flags, and its -pprof listener on another, logging to logPath.
func startServer(bin, name, logPath string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	pport, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	pprof := fmt.Sprintf("127.0.0.1:%d", pport)
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-pprof", pprof}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	s := &server{name: name, url: "http://" + addr, pprof: "http://" + pprof, cmd: cmd, log: logf, exit: make(chan error, 1)}
	go func() { s.exit <- cmd.Wait() }()
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /readyz until it answers 200, the process exits, or
// timeout passes.
func (s *server) waitReady(ctx context.Context, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/readyz", nil)
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-s.exit:
			s.exit <- err
			return fmt.Errorf("%s exited before ready (%v); see %s", s.name, err, s.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("%s not ready after %v; see %s", s.name, timeout, s.log.Name())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of %s: %w", s.name, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// allocated is what the process has allocated on its heap so far,
// from the runtime.MemStats that diggd's allocation profile ends with.
func (s *server) allocated(ctx context.Context) (allocs, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.pprof+"/debug/pprof/allocs?debug=1", nil)
	if err != nil {
		return allocs{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return allocs{}, fmt.Errorf("%s allocation profile: %w", s.name, err)
	}
	defer resp.Body.Close()
	a, err := parseAllocs(resp.Body)
	if err != nil {
		return allocs{}, fmt.Errorf("%s allocation profile: %w", s.name, err)
	}
	return a, nil
}

// allocs counts heap allocations: bytes and objects.
type allocs struct{ bytes, objects uint64 }

// parseAllocs reads the "# TotalAlloc = N" and "# Mallocs = N" lines
// of a debug=1 heap or allocation profile.
func parseAllocs(r io.Reader) (allocs, error) {
	var a allocs
	found := 0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		for _, f := range []struct {
			prefix string
			dst    *uint64
		}{{"# TotalAlloc = ", &a.bytes}, {"# Mallocs = ", &a.objects}} {
			if v, ok := strings.CutPrefix(sc.Text(), f.prefix); ok {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return a, err
				}
				*f.dst = n
				found++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return a, err
	}
	if found != 2 {
		return a, errors.New("no TotalAlloc and Mallocs lines")
	}
	return a, nil
}

// stop kills the process and waits for it to exit. The data directory
// is thrown away afterwards, so no graceful checkpoint is needed.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // an already-exited process is fine
	<-s.exit
	s.log.Close()
}

// fleet is the set of servers a workload runs, stopped together.
type fleet []*server

func (f fleet) stop() {
	for i := len(f) - 1; i >= 0; i-- {
		f[i].stop()
	}
}

func (f fleet) peakRSSMB() (float64, error) {
	var sum float64
	for _, s := range f {
		mb, err := s.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}
