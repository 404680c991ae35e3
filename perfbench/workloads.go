package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diggsim/internal/dataset"
	"diggsim/internal/digg"
	"diggsim/internal/httpapi"
	"diggsim/internal/rng"
)

// Workload sizes and rates. Each open-loop rate keeps the servers well
// below saturation on a 2-core host and gives the recorded operation at
// least 1000 samples per run, so its p99 has ten samples above it.
const (
	readRate      = 500.0 // read-zipf reads/s
	writeRate     = 220.0 // write-fresh write ops/s (9 of 10 are 100-vote batches)
	probeRate     = 20.0  // write-fresh freshness probes/s
	liveReadRate  = 200.0 // live-mixed reads/s
	liveSpeedup   = 3000  // live-mixed sim-minutes per wall-minute
	seedStories   = 1000  // write-fresh live stories submitted during setup
	seedBatch     = 500   // stories per setup submit batch
	diggBatchSize = 100   // votes per batch-digg op
	submitEvery   = 10    // every 10th write op submits instead
	submitBatchN  = 1     // stories per in-run submit batch
	openShare     = 0.4   // share of --seconds in the open-loop phase
	// write-fresh's closed loop is a fixed amount of work: what a vote
	// allocates, and the servers' memory, grow with the votes already
	// taken, so a loop that ran for a fixed time would measure more
	// state on a faster host. It sends closedDiggRate batches per second
	// of its nominal length (the rest of --seconds), about two thirds of
	// what 2 workers reach on a quiet 2-core host, and stops at
	// closedCap times that length with work left.
	closedDiggRate = 600.0
	closedCap      = 4
	readyTimeout   = 60 * time.Second
	catchUp        = 10 * time.Second // how long a follower may take to converge after load
	warmup         = 2 * time.Second
	setups         = 7 // set-ups per run: setup_s is their median, the last one is measured
	// maxGenLate bounds the generator's median lateness: past it the
	// load process could not keep its schedule, so the offered load
	// was not the stated rate and the run is invalid.
	maxGenLate = time.Millisecond
)

// env is one benchmark invocation.
type env struct {
	diggd   string // diggd binary
	work    string // scratch directory for logs and data directories
	seed    uint64
	seconds time.Duration
}

func (e env) open() time.Duration   { return time.Duration(float64(e.seconds) * openShare) }
func (e env) closed() time.Duration { return e.seconds - e.open() }

type metric struct {
	name, unit string
	value      float64
}

// outcome is what a run reports: its checks, its tally and its metrics.
type outcome struct {
	failedChecks []string
	t            tally
	metrics      []metric
	report       []string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failedChecks = append(o.failedChecks, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{name, unit, v})
}

func (o *outcome) printf(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// latencyReport records a latency in the report with its tail
// percentile and sample count.
func (o *outcome) latencyReport(name string, l latency) {
	o.printf("%-22s %s", name, l)
}

// genLateCheck records the generator's lateness and fails the run
// when its median exceeds maxGenLate.
func (o *outcome) genLateCheck(name string, late []time.Duration) {
	l := summarize(late)
	o.latencyReport(name+".generator_late", l)
	o.check(l.P50 <= maxGenLate, "%s generator ran late: median %v > %v", name, l.P50, maxGenLate)
}

// setupRepeated runs setup setups times, keeping the last fleet and
// tearing the others down, and returns every set-up's time in seconds.
func setupRepeated[T any](ctx context.Context, e env, setup func(k int) (fleet, T, error)) (fleet, T, []float64, error) {
	var times []float64
	var zero T
	for k := range setups {
		t0 := time.Now()
		fl, st, err := setup(k)
		if err != nil {
			fl.stop()
			return nil, zero, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if k == setups-1 {
			return fl, st, times, nil
		}
		fl.stop()
		if err := os.RemoveAll(filepath.Join(e.work, strconv.Itoa(k))); err != nil {
			return nil, zero, nil, err
		}
	}
	panic("unreachable: setups >= 1")
}

// spawn starts a diggd whose log and data live under the setup's
// scratch directory, and waits for /readyz.
func (e env) spawn(ctx context.Context, fl *fleet, k int, name string, args ...string) (*server, error) {
	dir := filepath.Join(e.work, strconv.Itoa(k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for i, a := range args {
		if a == "-data-dir" {
			args[i+1] = filepath.Join(dir, args[i+1])
		}
	}
	s, err := startServer(e.diggd, name, filepath.Join(dir, name+".log"), args...)
	if err != nil {
		return nil, err
	}
	*fl = append(*fl, s)
	return s, s.waitReady(ctx, readyTimeout)
}

func storyTotal(ctx context.Context, c *httpapi.Client) (int, error) {
	p, err := c.StoriesAt(ctx, "", 1)
	return p.Total, err
}

// addCost reports the workload's cost per unit of work done in the
// measured phase: heap bytes allocated, over every process and over the
// servers only (the gated metrics), and, in the report, heap objects
// and CPU time. Allocation counts are the program's own work: on the
// shared host the benchmark was sized on, the same code's CPU time per
// op moved by up to 2x between stretches of ten runs, its allocations
// per op did not.
func (o *outcome) addCost(c phaseCost, units int64, unit string) {
	o.check(units > 0, "no %s completed in the measured phase", unit)
	if units <= 0 {
		return
	}
	var all, servers allocs
	var cpuAll, cpuServers time.Duration
	parts := make([]string, len(c.names))
	for i, name := range c.names {
		all.bytes += c.alloc[i].bytes
		all.objects += c.alloc[i].objects
		cpuAll += c.cpu[i]
		if i > 0 {
			servers.bytes += c.alloc[i].bytes
			servers.objects += c.alloc[i].objects
			cpuServers += c.cpu[i]
		}
		parts[i] = fmt.Sprintf("%s %.2fs cpu, %.1f MB", name, c.cpu[i].Seconds(), float64(c.alloc[i].bytes)/1e6)
	}
	n := float64(units)
	o.printf("cost: %d %s; %s; host CPU stolen %.1f%%", units, unit, strings.Join(parts, ", "), 100*c.steal)
	o.printf("cost per op: %.0f B in %.1f heap objects (servers %.0f B in %.1f); cpu %.2f us (servers %.2f us)",
		float64(all.bytes)/n, float64(all.objects)/n, float64(servers.bytes)/n, float64(servers.objects)/n,
		float64(cpuAll)/1e3/n, float64(cpuServers)/1e3/n)
	o.add("alloc_bytes_per_op", "B", float64(all.bytes)/n)
	o.add("server_alloc_bytes_per_op", "B", float64(servers.bytes)/n)
}

// addSetup reports the median of a run's set-up times.
func (o *outcome) addSetup(times []float64) float64 {
	o.printf("set-ups: %s s", join(times, 1, "%.3f"))
	o.add("setup_s", "s", median(times))
	return median(times)
}

// readZipf: in-memory diggd with the default corpus, /v1 reads only.
func readZipf(ctx context.Context, e env) (*outcome, error) {
	const workers = 2 // nproc on the host the rates were sized for
	o := &outcome{}
	fl, _, setupTimes, err := setupRepeated(ctx, e, func(k int) (fleet, struct{}, error) {
		var fl fleet
		_, err := e.spawn(ctx, &fl, k, "diggd", "-small=false")
		return fl, struct{}{}, err
	})
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	counts := &statusCounts{}
	c := newClient(fl[0].url, counts)
	fail := &failures{}
	mix, err := newReadMix(ctx, c, e.seed, workers, fail)
	if err != nil {
		return nil, err
	}
	o.printf("server: diggd -small=false (in memory, %d stories, %d users)", len(mix.perm), dataset.DefaultConfig().Users)
	o.printf("load: %d workers, open loop %.0f reads/s for %v, closed loop for %v", workers, readRate, e.open(), e.closed())
	if err := mix.warm(ctx); err != nil {
		return nil, err
	}
	read := func(ctx context.Context, w int, _ uint64, due time.Time) { mix.do(ctx, w, due) }
	openLoop(ctx, readRate, warmup, workers, read)
	mix.lat.reset()
	late := openLoop(ctx, readRate, e.open(), workers, read)
	openLat := mix.lat.get()
	var opsPerS float64
	var windows []float64
	var reads atomic.Int64
	cost, err := fl.measureCost(ctx, func() {
		opsPerS, windows = closedLoop(ctx, e.closed(), workers, 0, func(ctx context.Context, w int) int {
			if mix.do(ctx, w, time.Now()) {
				reads.Add(1)
				return 1
			}
			return 0
		})
	})
	if err != nil {
		return nil, err
	}
	o.printf("closed loop reads/s per window: %s", join(windows, 1, "%.0f"))
	rss, err := fl.peakRSSMB()
	if err != nil {
		return nil, err
	}

	o.t = fail.tally()
	o.check(o.t.Failed == 0, "read failures: %d %v", o.t.Failed, fail.msgs)
	o.check(counts.other.Load() == 0, "%d responses were neither 200 nor 304", counts.other.Load())
	o.check(mix.crawls.Load() > 0, "no full cursor crawl completed")
	o.genLateCheck("read", late)
	setupS := o.addSetup(setupTimes)
	lat := summary(openLat)
	o.latencyReport("read", lat)
	o.check(lat.p99Valid(), "only %d read samples: p99 has fewer than %d above it", lat.N, minBeyond)
	o.printf("responses: %d x 200, %d x 304; full crawls %d", counts.ok.Load(), counts.notModified.Load(), mix.crawls.Load())
	o.printf("read_ops_per_s %.1f; setup_s %.4f; peak_rss_mb %.1f; error_ratio %.6f", opsPerS, setupS, rss, o.t.errorRatio())
	o.addCost(cost, reads.Load(), "closed-loop reads")
	o.add("peak_rss_mb", "MB", rss)
	return o, nil
}

// writeSetup is the state write-fresh's setup leaves behind.
type writeSetup struct {
	pc, fc *httpapi.Client
	ids    []digg.StoryID
}

// writeFresh: durable 2-shard primary with fsync always, grown by
// stories the benchmark submits, plus one follower.
func writeFresh(ctx context.Context, e env) (*outcome, error) {
	o := &outcome{}
	users := dataset.SmallConfig().Users
	counts := &statusCounts{}
	fail := &failures{}
	fl, st, setupTimes, err := setupRepeated(ctx, e, func(k int) (fleet, writeSetup, error) {
		var fl fleet
		var ws writeSetup
		p, err := e.spawn(ctx, &fl, k, "primary", "-data-dir", "primary", "-shards", "2", "-fsync", "always")
		if err != nil {
			return fl, ws, err
		}
		ws.pc = newClient(p.url, counts)
		r := rng.New(e.seed ^ 0x5eed)
		var title atomic.Int64
		for len(ws.ids) < seedStories {
			ids, err := submitStories(ctx, ws.pc, r, users, seedBatch, &title, fail)
			if err != nil {
				return fl, ws, err
			}
			ws.ids = append(ws.ids, ids...)
		}
		f, err := e.spawn(ctx, &fl, k, "follower", "-data-dir", "follower", "-replica-of", p.url)
		if err != nil {
			return fl, ws, err
		}
		ws.fc = newClient(f.url, counts)
		return fl, ws, converged(ctx, ws.pc, ws.fc, readyTimeout)
	})
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	*fail = failures{} // setup writes are not part of the measured tally

	gen := newWriteGen(st.pc, st.ids, users, diggBatchSize, e.seed, 2, fail)
	pr := &prober{primary: st.pc, follower: st.fc, r: rng.New(e.seed ^ 0xf4e54), users: users, fail: fail}
	write := func(ctx context.Context, w int, i uint64, due time.Time) {
		if i%submitEvery == submitEvery-1 {
			gen.submitBatch(ctx, 0, submitBatchN)
			return
		}
		if _, ok := gen.diggBatch(ctx, 0); ok {
			gen.lat.add(due)
		}
	}
	openLoop(ctx, writeRate, warmup, 1, write)
	gen.lat.reset()
	var wg sync.WaitGroup
	var writeLate, probeLate []time.Duration
	wg.Add(2)
	go func() {
		defer wg.Done()
		writeLate = openLoop(ctx, writeRate, e.open(), 1, write)
	}()
	go func() {
		defer wg.Done()
		probeLate = openLoop(ctx, probeRate, e.open(), 1, func(ctx context.Context, w int, i uint64, due time.Time) {
			pr.probe(ctx, i, due)
		})
	}()
	wg.Wait()
	var votesPerS float64
	var windows []float64
	var votes, batches atomic.Int64
	budget := int(closedDiggRate * e.closed().Seconds())
	start := time.Now()
	cost, err := fl.measureCost(ctx, func() {
		votesPerS, windows = closedLoop(ctx, closedCap*e.closed(), 2, budget, func(ctx context.Context, w int) int {
			n, _ := gen.diggBatch(ctx, w)
			votes.Add(int64(n))
			batches.Add(1)
			return n
		})
	})
	if err != nil {
		return nil, err
	}
	o.printf("closed loop: %d of %d digg batches in %.2fs", batches.Load(), budget, time.Since(start).Seconds())
	o.printf("closed loop accepted votes/s per window: %s", join(windows, 1, "%.0f"))
	rss, err := fl.peakRSSMB()
	if err != nil {
		return nil, err
	}

	o.t = fail.tally()
	o.check(o.t.Failed == 0, "write failures: %d %v", o.t.Failed, fail.msgs)
	checkWrites(ctx, o, st, gen, pr)
	o.genLateCheck("write", writeLate)
	o.genLateCheck("probe", probeLate)
	o.printf("servers: diggd -data-dir -shards 2 -fsync always (small corpus, %d users), grown by %d live stories; follower diggd -replica-of", users, len(st.ids))
	o.printf("load: open loop %.0f write ops/s (%d-vote batches, every %dth op submits %d stories) + %.0f probes/s for %v; closed loop 2 workers, %d batches",
		writeRate, diggBatchSize, submitEvery, submitBatchN, probeRate, e.open(), budget)
	setupS := o.addSetup(setupTimes)
	wlat := summary(gen.lat.get())
	o.latencyReport("write", wlat)
	o.check(wlat.p99Valid(), "only %d write samples: p99 has fewer than %d above it", wlat.N, minBeyond)
	o.latencyReport("fresh", summary(pr.fresh.get()))
	o.latencyReport("follower_fresh", summary(pr.followerFresh.get()))
	o.printf("write_votes_per_s %.1f; rejected (already_voted) %d; setup_s %.4f; peak_rss_mb %.1f; error_ratio %.6f",
		votesPerS, o.t.Rejected, setupS, rss, o.t.errorRatio())
	o.addCost(cost, votes.Load(), "accepted closed-loop votes")
	o.add("peak_rss_mb", "MB", rss)
	return o, nil
}

// converged waits until the follower lists as many stories as the
// primary.
func converged(ctx context.Context, pc, fc *httpapi.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		pt, err := storyTotal(ctx, pc)
		if err != nil {
			return err
		}
		ft, err := storyTotal(ctx, fc)
		if err == nil && ft == pt {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower lists %d stories, primary %d (err %v)", ft, pt, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkWrites: every acked story is served by the primary and by the
// follower once caught up, sampled vote counts equal the submitter's
// own vote plus the accepted votes, and both nodes list the same
// number of stories.
func checkWrites(ctx context.Context, o *outcome, st writeSetup, gen *writeGen, pr *prober) {
	if err := converged(ctx, st.pc, st.fc, catchUp); err != nil {
		o.check(false, "follower did not converge: %v", err)
		return
	}
	acked := append(append(append([]digg.StoryID{}, st.ids...), gen.acked...), pr.acked...)
	for name, c := range map[string]*httpapi.Client{"primary": st.pc, "follower": st.fc} {
		seen, err := fullCrawl(ctx, c)
		if err != nil {
			o.check(false, "%s crawl: %v", name, err)
			continue
		}
		missing := 0
		for _, id := range acked {
			if !seen[id] {
				missing++
			}
		}
		o.check(missing == 0, "%s is missing %d of %d acked stories", name, missing, len(acked))
	}
	r := rng.New(7)
	for range 50 {
		id := st.ids[r.Intn(len(st.ids))]
		want := 1 + gen.accepted[id]
		for name, c := range map[string]*httpapi.Client{"primary": st.pc, "follower": st.fc} {
			if err := waitVotes(ctx, c, id, want); err != nil {
				o.check(false, "%s story %d: %v", name, id, err)
			}
		}
	}
	pt, perr := storyTotal(ctx, st.pc)
	ft, ferr := storyTotal(ctx, st.fc)
	o.check(perr == nil && ferr == nil && pt == ft, "story totals differ: primary %d (%v), follower %d (%v)", pt, perr, ft, ferr)
}

// waitVotes waits up to catchUp for a story to show want votes.
func waitVotes(ctx context.Context, c *httpapi.Client, id digg.StoryID, want int) error {
	deadline := time.Now().Add(catchUp)
	for {
		s, err := c.Story(ctx, id)
		if err != nil {
			return err
		}
		if s.Votes == want && len(s.VoteList) == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d votes, want %d", s.Votes, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// liveMixed: durable unsharded diggd in live mode; one worker tails
// /v1/stream while the other reads.
func liveMixed(ctx context.Context, e env) (*outcome, error) {
	o := &outcome{}
	speed := strconv.Itoa(liveSpeedup)
	fl, _, setupTimes, err := setupRepeated(ctx, e, func(k int) (fleet, struct{}, error) {
		var fl fleet
		_, err := e.spawn(ctx, &fl, k, "diggd", "-small", "-live", "-speedup", speed, "-fsync", "always", "-data-dir", "data")
		return fl, struct{}{}, err
	})
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	counts := &statusCounts{}
	c := newClient(fl[0].url, counts)
	fail := &failures{}
	mix, err := newReadMix(ctx, c, e.seed, 1, fail)
	if err != nil {
		return nil, err
	}
	stories := len(mix.perm)
	if err := mix.warm(ctx); err != nil {
		return nil, err
	}
	var reads atomic.Int64
	read := func(ctx context.Context, w int, _ uint64, due time.Time) {
		if mix.do(ctx, w, due) {
			reads.Add(1)
		}
	}
	openLoop(ctx, liveReadRate, warmup, 1, read)
	mix.lat.reset()
	var tail sseTail
	var tailErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tailErr = tail.run(ctx, newClient(fl[0].url, counts), e.seconds)
	}()
	var late []time.Duration
	cost, err := fl.measureCost(ctx, func() {
		late = openLoop(ctx, liveReadRate, e.seconds, 1, read)
		wg.Wait()
	})
	if err != nil {
		return nil, err
	}
	rss, err := fl.peakRSSMB()
	if err != nil {
		return nil, err
	}
	eventsPerS := float64(tail.events.Load()) / tail.elapsed.Seconds()

	o.t = fail.tally()
	o.t.Attempted += int(tail.events.Load()) + int(tail.dropped)
	o.t.Failed += int(tail.dropped)
	o.check(tailErr == nil, "stream: %v", tailErr)
	o.check(tail.gaps == 0, "SSE seq not contiguous: %d unexplained gaps", tail.gaps)
	o.check(tail.events.Load() > 0, "no SSE events delivered")
	o.check(fail.tally().Failed == 0, "read failures: %v", fail.msgs)
	o.check(counts.other.Load() == 0, "%d responses were neither 200 nor 304", counts.other.Load())
	o.genLateCheck("read", late)
	o.printf("server: diggd -small -live -speedup %d -fsync always -data-dir (unsharded durable, %d stories at start)", liveSpeedup, stories)
	o.printf("load: 1 worker tails /v1/stream, 1 worker open loop %.0f reads/s, for %v", liveReadRate, e.seconds)
	setupS := o.addSetup(setupTimes)
	lat := summary(mix.lat.get())
	o.latencyReport("read", lat)
	o.check(lat.p99Valid(), "only %d read samples: p99 has fewer than %d above it", lat.N, minBeyond)
	o.printf("sse: %d events in %.2fs, %d lag events dropping %d; responses %d x 200, %d x 304",
		tail.events.Load(), tail.elapsed.Seconds(), tail.lagged, tail.dropped, counts.ok.Load(), counts.notModified.Load())
	o.printf("sse_events_per_s %.1f; setup_s %.4f; peak_rss_mb %.1f; error_ratio %.6f", eventsPerS, setupS, rss, o.t.errorRatio())
	o.addCost(cost, reads.Load()+tail.events.Load(), "reads and SSE events")
	o.add("peak_rss_mb", "MB", rss)
	return o, nil
}

// join formats values divided by scale, space-separated.
func join(v []float64, scale float64, format string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf(format, x/scale)
	}
	return strings.Join(parts, " ")
}
