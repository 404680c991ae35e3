package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/dataset"
	"diggsim/internal/digg"
	"diggsim/internal/durable"
	"diggsim/internal/httpapi"
	"diggsim/internal/live"
	"diggsim/internal/obs"
	"diggsim/internal/repl"
	"diggsim/internal/rng"
	"diggsim/internal/shard"
	"diggsim/internal/wal"
)

// traceSlice is how long tracing stays on, then off, in turn during a
// traced load phase. Requests due while it was off give the untraced
// baseline the tracing overhead is measured against.
const traceSlice = 250 * time.Millisecond

// corpusSeed is diggd's default -seed, used by every stack.
const corpusSeed = 20060630

// traced builds each workload's stack in-process from the same public
// constructors diggd uses, drives the workload's load through the SDK
// over loopback, and reports per-layer metrics from spans recorded
// around the calls into each layer. Every stack runs, whichever
// workload was named, because each layer works on one stack only (the
// WAL and repl on write-fresh, live on live-mixed); each gets a third
// of --seconds.
func traced(ctx context.Context, e env, workload string) (*outcome, error) {
	o := &outcome{}
	d := e.seconds / 3
	o.printf("traced run: in-process stacks for read-zipf, live-mixed and write-fresh, %v each; --workload %s names no subset", d, workload)
	for _, s := range []struct {
		name string
		run  func(context.Context, env, *tracer, *outcome, time.Duration) error
	}{
		{"read-zipf", tracedReadZipf},
		{"live-mixed", tracedLiveMixed},
		{"write-fresh", tracedWriteFresh},
	} {
		tr := newTracer()
		if err := s.run(ctx, e, tr, o, d); err != nil {
			return nil, fmt.Errorf("%s stack: %w", s.name, err)
		}
		o.printf("%-11s %-22s %8s %14s %10s %7s", s.name, "span", "calls", "busy", "units", "failed")
		for _, name := range layerNames {
			if l := tr.l(name); l.calls.Load() > 0 {
				o.printf("%-11s %-22s %8d %14v %10d %7d", s.name, name, l.calls.Load(), time.Duration(l.busy.Load()), l.units.Load(), l.failed.Load())
			}
		}
	}
	return o, nil
}

// genesisInfo mirrors the provenance blob diggd stores in a new data
// directory.
type genesisInfo struct {
	Seed      uint64         `json:"seed"`
	CreatedAt string         `json:"created_at"`
	Config    dataset.Config `json:"config"`
}

// stack is one in-process diggd: its HTTP server and what to stop.
type stack struct {
	url   string
	srv   *http.Server
	stops []func()
}

func (s *stack) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
}

// serve finishes srv the way diggd does (timeline and SLO burn rates,
// request metrics, the slow-trace middleware) and serves it on a
// loopback port. tr, when not nil, times the whole chain per route.
func (s *stack) serve(srv *httpapi.Server, tr *tracer) (http.Handler, error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	timeline := obs.NewTimeline(obs.Default, 900, time.Second)
	wg.Add(1)
	go func() { defer wg.Done(); timeline.Run(ctx) }()
	s.stops = append(s.stops, func() { cancel(); wg.Wait() })
	srv.AttachTimeline(timeline, httpapi.DefaultSLOs()...)
	metrics := httpapi.NewMetrics()
	srv.AttachMetrics(metrics)
	h := httpapi.NewTracer(250*time.Millisecond, nil).Middleware(srv.Handler())
	h = metrics.Middleware(h)
	if tr != nil {
		h = tr.middleware(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) // returns ErrServerClosed when close() runs
	return h, nil
}

// generate builds a corpus and returns it with its generation time.
func generate(cfg dataset.Config) (*dataset.Dataset, float64, error) {
	cfg.Seed = corpusSeed
	start := time.Now()
	ds, err := dataset.Generate(cfg)
	return ds, time.Since(start).Seconds(), err
}

func genesis(cfg dataset.Config) []byte {
	b, _ := json.Marshal(genesisInfo{Seed: corpusSeed, CreatedAt: time.Now().UTC().Format(time.RFC3339), Config: cfg})
	return b
}

// flipTracing turns tr on and off every traceSlice from start until
// ctx ends, and reports whether tracing was on at a given instant.
// stop returns what this process used with tracing off ([0]) and on
// ([1]).
func flipTracing(ctx context.Context, tr *tracer, start time.Time) (onAt func(time.Time) bool, stop func() sliceCost) {
	onAt = func(t time.Time) bool { return t.Sub(start)/traceSlice%2 == 1 }
	ctx, cancel := context.WithCancel(ctx)
	var c sliceCost
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ms runtime.MemStats
		on := 0
		runtime.ReadMemStats(&ms)
		lastCPU, lastAlloc := selfCPU(), ms.TotalAlloc
		account := func() {
			runtime.ReadMemStats(&ms)
			cpu := selfCPU()
			c.cpu[on] += cpu - lastCPU
			c.alloc[on] += ms.TotalAlloc - lastAlloc
			lastCPU, lastAlloc = cpu, ms.TotalAlloc
		}
		for {
			now := time.Now()
			account()
			on = 0
			if onAt(now) {
				on = 1
			}
			tr.on.Store(on == 1)
			next := start.Add((now.Sub(start)/traceSlice + 1) * traceSlice)
			select {
			case <-ctx.Done():
				account()
				tr.on.Store(false)
				return
			case <-time.After(time.Until(next)):
			}
		}
	}()
	return onAt, func() sliceCost { cancel(); wg.Wait(); return c }
}

// sliceCost is the CPU time and heap bytes a traced stack's process
// used while tracing was off ([0]) and on ([1]).
type sliceCost struct {
	cpu   [2]time.Duration
	alloc [2]uint64
}

// selfCPU is the CPU time (user + system) this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// overhead reports traced minus untraced p50 and tail latency for one
// stack, and how much more CPU time and heap allocation per operation
// the process used with tracing on, in percent.
func overhead(o *outcome, name string, s []sample, onAt func(time.Time) bool, c sliceCost) {
	var on, off []sample
	for _, x := range s {
		if onAt(x.at) {
			on = append(on, x)
		} else {
			off = append(off, x)
		}
	}
	lon, loff := summary(on), summary(off)
	// The tail is the highest percentile both halves have ten samples
	// above; the stack's rate fixes which one it is.
	p := tailPercentile(min(lon.N, loff.N))
	tail := func(s []sample) time.Duration {
		d := make([]time.Duration, len(s))
		for i, x := range s {
			d[i] = x.d
		}
		slices.Sort(d)
		return d[rankOf(p, len(d))]
	}
	pct := func(off, on float64) float64 {
		return 100 * (ratio(ratio(on, float64(lon.N)), ratio(off, float64(loff.N))) - 1)
	}
	o.printf("%s traced   %s; cpu %v, heap %.1f MB", name, lon, c.cpu[1], float64(c.alloc[1])/1e6)
	o.printf("%s untraced %s; cpu %v, heap %.1f MB", name, loff, c.cpu[0], float64(c.alloc[0])/1e6)
	o.printf("%s overhead tail is p%g", name, p)
	o.add("overhead."+name+".p50_ms", "ms", ms(lon.P50-loff.P50))
	o.add("overhead."+name+".tail_ms", "ms", ms(tail(on)-tail(off)))
	o.add("overhead."+name+".cpu_pct", "%", pct(float64(c.cpu[0]), float64(c.cpu[1])))
	o.add("overhead."+name+".alloc_pct", "%", pct(float64(c.alloc[0]), float64(c.alloc[1])))
}

// layerMean adds a layer's mean time per call and its call count.
func (o *outcome) layerMean(metric, count string, l *layerStat) {
	o.add(metric, "ns", l.meanNS())
	o.add(count, "count", float64(l.calls.Load()))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func tracedReadZipf(ctx context.Context, e env, tr *tracer, o *outcome, d time.Duration) error {
	var st stack
	defer st.close()
	ds, genS, err := generate(dataset.DefaultConfig())
	if err != nil {
		return err
	}
	o.add("dataset.generate_s", "s", genS)
	store, err := wrapStore(ds.Platform, tr)
	if err != nil {
		return err
	}
	srv := httpapi.NewServer(store, ds.Config.SnapshotAt, ds.RankOf)
	clock := live.NewClock(time.Now(), ds.Config.SnapshotAt, 1)
	srv.SetNowFunc(func() digg.Minutes { return clock.Now(time.Now()) })
	h, err := st.serve(srv, tr)
	if err != nil {
		return err
	}
	counts := &statusCounts{}
	fail := &failures{}
	mix, err := newReadMix(ctx, newClient(st.url, counts), e.seed, 2, fail)
	if err != nil {
		return err
	}
	mix.onCall = tr.clientCall
	if err := mix.warm(ctx); err != nil {
		return err
	}
	openLoop(ctx, readRate, warmup, 2, func(ctx context.Context, w int, _ uint64, due time.Time) { mix.do(ctx, w, due) })
	mix.lat.reset()
	start := time.Now()
	onAt, stop := flipTracing(ctx, tr, start)
	openLoop(ctx, readRate, d, 2, func(ctx context.Context, w int, _ uint64, due time.Time) { mix.do(ctx, w, due) })
	sc := stop()
	o.check(fail.tally().Failed == 0, "read-zipf stack: read failures %v", fail.msgs)
	o.t.add(fail.tally())
	overhead(o, "read-zipf", mix.lat.get(), onAt, sc)

	for _, r := range []struct{ metric, count, layer string }{
		{"httpapi.story_ns", "httpapi.story_calls", "httpapi.story"},
		{"httpapi.frontpage_ns", "httpapi.frontpage_calls", "httpapi.frontpage"},
		{"httpapi.upcoming_ns", "httpapi.upcoming_calls", "httpapi.upcoming"},
		{"httpapi.stories_page_ns", "httpapi.stories_page_calls", "httpapi.stories_page"},
	} {
		o.layerMean(r.metric, r.count, tr.l(r.layer))
	}
	mean, n := tr.clientOverhead()
	o.add("client.overhead_ns", "ns", mean)
	o.add("client.joined_calls", "count", float64(n))
	o.add("httpapi.read_allocs", "allocs", readAllocs(h, mix.perm[:50]))

	var cursors []apiv1.Cursor
	for _, rd := range mix.workers {
		cursors = append(cursors, rd.cursors...)
	}
	ns, err := cursorDecode(cursors)
	if err != nil {
		return err
	}
	o.add("apiv1.cursor_decode_ns", "ns", ns)
	o.add("apiv1.cursors", "count", float64(len(cursors)))
	return nil
}

// readAllocs is the mean heap allocations of one read served by the
// full handler chain, called directly (no client, no socket) over the
// read routes in the workload's mix.
func readAllocs(h http.Handler, ids []digg.StoryID) float64 {
	urls := []string{"/v1/frontpage?limit=30", "/v1/upcoming?limit=30", fmt.Sprintf("/v1/stories?limit=%d", crawlPage)}
	for _, id := range ids {
		urls = append(urls, fmt.Sprintf("/v1/stories/%d", id))
	}
	serve := func() {
		for _, u := range urls {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, u, nil))
		}
	}
	serve() // warm pools and caches
	var before, after runtime.MemStats
	const reps = 5
	runtime.ReadMemStats(&before)
	for range reps {
		serve()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps*len(urls))
}

// cursorDecode is the mean time to decode one of the cursors the
// server handed the crawl.
func cursorDecode(cursors []apiv1.Cursor) (float64, error) {
	if len(cursors) == 0 {
		return 0, fmt.Errorf("the crawl received no cursors")
	}
	const reps = 200
	start := time.Now()
	for range reps {
		for _, c := range cursors {
			if _, err := c.Decode(apiv1.CursorStories); err != nil {
				return 0, fmt.Errorf("decoding a served cursor: %w", err)
			}
		}
	}
	return float64(time.Since(start)) / float64(reps*len(cursors)), nil
}

func tracedLiveMixed(ctx context.Context, e env, tr *tracer, o *outcome, d time.Duration) error {
	var st stack
	defer st.close()
	cfg := dataset.SmallConfig()
	ds, genS, err := generate(cfg)
	if err != nil {
		return err
	}
	o.add("dataset.generate_small_s", "s", genS)
	dir := filepath.Join(e.work, "traced-live")
	dstore, err := durable.Create(dir, ds.Platform, genesis(ds.Config), durable.Options{Sync: wal.SyncAlways, CheckpointEvery: time.Minute})
	if err != nil {
		return err
	}
	st.stops = append(st.stops, func() { dstore.Close() })
	store, err := wrapStore(dstore, tr)
	if err != nil {
		return err
	}
	srv := httpapi.NewServer(store, ds.Config.SnapshotAt, nil)
	svc, err := live.NewService(store, live.Config{
		Speedup:            liveSpeedup,
		SubmissionsPerHour: 60,
		Seed:               corpusSeed + 1 + store.Generation(),
		StartAt:            ds.Config.SnapshotAt,
		Agent:              ds.Config.Agent,
		SubmitterZipfS:     ds.Config.SubmitterZipfS,
		InterestExponent:   ds.Config.InterestExponent,
		TopUserListSize:    ds.Config.TopUserListSize,
	})
	if err != nil {
		return err
	}
	srv.AttachLive(svc)
	srv.SetWriteTraceFunc(dstore.SetWriteTrace)
	srv.MountRepl(&repl.Source{Shards: []repl.SourceShard{{Dir: dstore.Dir(), Head: dstore.AppliedLSN, LastCommit: dstore.LastCommit}}})
	if _, err := st.serve(srv, tr); err != nil {
		return err
	}

	// The benchmark steps the service itself, exactly as Service.Run
	// does (StepTo on every tick of the clock-mapped sim time), so each
	// step and a subscriber's Drain of it can be timed.
	bus := svc.Bus()
	sub := bus.Subscribe()
	stepCtx, stopSteps := context.WithCancel(ctx)
	var wg sync.WaitGroup
	var stepErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer sub.Close()
		clock := live.NewClock(time.Now(), ds.Config.SnapshotAt, liveSpeedup)
		ticker := time.NewTicker(200 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stepCtx.Done():
				return
			case now := <-ticker.C:
				published := bus.Stats().Published
				start := time.Now()
				if stepErr = svc.StepTo(clock.Now(now)); stepErr != nil {
					return
				}
				tr.record("live.step", start, int(bus.Stats().Published-published), nil)
				start = time.Now()
				evs, _ := sub.Drain()
				tr.record("live.drain", start, len(evs), nil)
			}
		}
	}()
	st.stops = append(st.stops, func() { stopSteps(); wg.Wait() })

	counts := &statusCounts{}
	fail := &failures{}
	c := newClient(st.url, counts)
	mix, err := newReadMix(ctx, c, e.seed, 1, fail)
	if err != nil {
		return err
	}
	if err := mix.warm(ctx); err != nil {
		return err
	}
	var tail sseTail
	var tailErr error
	start := time.Now()
	onAt, stop := flipTracing(ctx, tr, start)
	var tw sync.WaitGroup
	tw.Add(1)
	go func() { defer tw.Done(); tailErr = tail.run(ctx, newClient(st.url, counts), d) }()
	openLoop(ctx, liveReadRate, d, 1, func(ctx context.Context, w int, _ uint64, due time.Time) { mix.do(ctx, w, due) })
	tw.Wait()
	sc := stop()
	o.check(tailErr == nil && stepErr == nil, "live-mixed stack: stream %v, step %v", tailErr, stepErr)
	o.check(tail.gaps == 0, "live-mixed stack: %d SSE seq gaps", tail.gaps)
	o.check(fail.tally().Failed == 0, "live-mixed stack: read failures %v", fail.msgs)
	o.t.add(fail.tally())
	overhead(o, "live-mixed", mix.lat.get(), onAt, sc)

	step, drain := tr.l("live.step"), tr.l("live.drain")
	o.layerMean("live.step_ns", "live.steps", step)
	o.add("live.events_per_step", "count", ratio(float64(step.units.Load()), float64(step.calls.Load())))
	o.add("live.drain_ns", "ns", drain.meanNS())
	o.add("live.bus_dropped", "count", float64(bus.Stats().Dropped))
	fp, fp304 := tr.l("httpapi.frontpage"), tr.l("httpapi.frontpage_304")
	o.add("httpapi.not_modified_ratio", "ratio", ratio(float64(fp304.calls.Load()), float64(fp.calls.Load())))
	o.add("live.sse_events", "count", float64(tail.events.Load()))
	return nil
}

func tracedWriteFresh(ctx context.Context, e env, tr *tracer, o *outcome, d time.Duration) error {
	var st stack
	defer st.close()
	ds, _, err := generate(dataset.SmallConfig())
	if err != nil {
		return err
	}
	dir := filepath.Join(e.work, "traced-write")
	pdir, fdir := filepath.Join(dir, "primary"), filepath.Join(dir, "follower")
	sstore, err := shard.Create(pdir, ds.Platform, 2, genesis(ds.Config), durable.Options{Sync: wal.SyncAlways, CheckpointEvery: time.Minute})
	if err != nil {
		return err
	}
	st.stops = append(st.stops, func() { sstore.Close() })
	store, err := wrapStore(sstore, tr)
	if err != nil {
		return err
	}
	srv := httpapi.NewServer(store, ds.Config.SnapshotAt, ds.RankOf)
	clock := live.NewClock(time.Now(), ds.Config.SnapshotAt, 1)
	srv.SetNowFunc(func() digg.Minutes { return clock.Now(time.Now()) })
	srv.SetWriteTraceFunc(func(id uint64) {
		for i := 0; i < sstore.ShardCount(); i++ {
			sstore.DurableShard(i).SetWriteTrace(id)
		}
	})
	var src []repl.SourceShard
	for i := 0; i < sstore.ShardCount(); i++ {
		sh := sstore.DurableShard(i)
		src = append(src, repl.SourceShard{Dir: sh.Dir(), Head: sh.AppliedLSN, LastCommit: sh.LastCommit})
	}
	replSrc := &repl.Source{Shards: src}
	st.stops = append(st.stops, replSrc.Close)
	srv.MountRepl(replSrc)
	if _, err := st.serve(srv, tr); err != nil {
		return err
	}

	counts := &statusCounts{}
	fail := &failures{}
	users := ds.Config.Users
	pc := newClient(st.url, counts)
	var ids []digg.StoryID
	var title atomic.Int64
	r := rng.New(e.seed ^ 0x5eed)
	for len(ids) < seedStories {
		batch, err := submitStories(ctx, pc, r, users, seedBatch, &title, fail)
		if err != nil {
			return err
		}
		ids = append(ids, batch...)
	}

	// Follower, booted as diggd -replica-of boots one.
	var fst stack
	defer fst.close()
	transport := &repl.HTTPTransport{Base: st.url}
	start := time.Now()
	node, err := repl.Bootstrap(ctx, transport, fdir, durable.Options{Sync: wal.SyncInterval, CheckpointEvery: time.Minute})
	if err != nil {
		return err
	}
	o.add("repl.bootstrap_s", "s", time.Since(start).Seconds())
	fst.stops = append(fst.stops, func() { node.Close() })
	follower := repl.NewFollower(tracedTarget{node.Target, tr}, transport, repl.Options{StateDir: fdir, Primary: st.url})
	fsrv := httpapi.NewServer(node.Store(), ds.Config.SnapshotAt, nil)
	fclock := live.NewClock(time.Now(), ds.Config.SnapshotAt, 1)
	fsrv.SetNowFunc(func() digg.Minutes { return fclock.Now(time.Now()) })
	fsrv.AttachRepl(follower, httpapi.DefaultReadyMaxLag)
	fsrc := &repl.Source{Shards: node.SourceShards(), Promote: follower.Promote}
	fsrc.Role = func() string {
		if follower.ReadOnly() {
			return "follower"
		}
		return "primary"
	}
	fst.stops = append(fst.stops, fsrc.Close)
	fsrv.MountRepl(fsrc)
	if _, err := fst.serve(fsrv, nil); err != nil {
		return err
	}
	follower.Start()
	fst.stops = append(fst.stops, follower.Stop)
	fc := newClient(fst.url, counts)
	if err := converged(ctx, pc, fc, readyTimeout); err != nil {
		return err
	}

	*fail = failures{}
	gen := newWriteGen(pc, ids, users, diggBatchSize, e.seed, 1, fail)
	pr := &prober{primary: pc, follower: fc, r: rng.New(e.seed ^ 0xf4e54), users: users, fail: fail}
	bytesBefore, err := dirBytes(pdir)
	if err != nil {
		return err
	}
	start = time.Now()
	onAt, stop := flipTracing(ctx, tr, start)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		openLoop(ctx, probeRate, d, 1, func(ctx context.Context, w int, i uint64, due time.Time) { pr.probe(ctx, i, due) })
	}()
	openLoop(ctx, writeRate, d, 1, func(ctx context.Context, w int, i uint64, due time.Time) {
		if i%submitEvery == submitEvery-1 {
			gen.submitBatch(ctx, 0, submitBatchN)
			return
		}
		if _, ok := gen.diggBatch(ctx, 0); ok {
			gen.lat.add(due)
		}
	})
	wg.Wait()
	sc := stop()
	bytesAfter, err := dirBytes(pdir)
	if err != nil {
		return err
	}
	o.check(fail.tally().Failed == 0, "write-fresh stack: write failures %v", fail.msgs)
	o.t.add(fail.tally())
	checkWrites(ctx, o, writeSetup{pc: pc, fc: fc, ids: ids}, gen, pr)
	overhead(o, "write-fresh", gen.lat.get(), onAt, sc)

	bd, sd := tr.l("httpapi.batch_digg"), tr.l("httpapi.submit")
	dm, sm, ss := tr.l("shard.digg_many"), tr.l("shard.submit_many"), tr.l("store.submit")
	o.add("httpapi.batch_digg_self_ns", "ns", ratio(float64(bd.busy.Load()-dm.busy.Load()), float64(bd.calls.Load())))
	o.add("httpapi.batch_digg_calls", "count", float64(bd.calls.Load()))
	o.add("httpapi.submit_self_ns", "ns", ratio(float64(sd.busy.Load()-ss.busy.Load()), float64(sd.calls.Load())))
	o.add("httpapi.submit_calls", "count", float64(sd.calls.Load()))
	o.layerMean("shard.digg_many_ns", "shard.digg_many_calls", dm)
	o.layerMean("shard.submit_many_ns", "shard.submit_many_calls", sm)
	o.add("shard.votes_accepted_ratio", "ratio", ratio(float64(dm.units.Load()), float64(dm.calls.Load()*diggBatchSize)))
	ap := tr.l("repl.apply")
	o.layerMean("repl.apply_ns", "repl.applies", ap)
	o.add("repl.records_per_apply", "count", ratio(float64(ap.units.Load()), float64(ap.calls.Load())))

	// Everything the primary's directory grew by, per vote accepted
	// while it grew (stories submitted meanwhile are charged too).
	votes := 0
	for _, n := range gen.accepted {
		votes += n
	}
	perVote := ratio(float64(bytesAfter-bytesBefore), float64(votes))
	o.add("wal.bytes_per_vote", "B", perVote)
	return walDirect(filepath.Join(dir, "wal-direct"), perVote, o)
}

// walDirect drives wal.Writer directly with the write-fresh workload's
// shape: one AppendBatch per shard per 100-vote batch, each entry the
// measured size of a vote record, then one Sync, on the same filesystem
// as the servers' data directories.
func walDirect(dir string, perVote float64, o *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w, err := wal.OpenWriter(dir, 0, wal.Options{Sync: wal.SyncOS})
	if err != nil {
		return err
	}
	defer w.Close()
	payload := max(int(perVote+0.5)-9, 1) // 9: the record frame header
	entries := make([]wal.Entry, diggBatchSize/2)
	for i := range entries {
		entries[i] = wal.Entry{Type: 1, Payload: make([]byte, payload)}
	}
	const n = 200
	var appendNS, syncNS time.Duration
	for range n {
		start := time.Now()
		if _, err := w.AppendBatch(entries); err != nil {
			return err
		}
		mid := time.Now()
		if err := w.Sync(); err != nil {
			return err
		}
		appendNS += mid.Sub(start)
		syncNS += time.Since(mid)
	}
	o.add("wal.append_ns", "ns", float64(appendNS)/n)
	o.add("wal.sync_ns", "ns", float64(syncNS)/n)
	o.add("wal.appends", "count", n)
	return nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // a segment removed by a checkpoint mid-walk
			}
			return err
		}
		if de.Type().IsRegular() && !strings.HasSuffix(path, ".tmp") {
			if info, err := de.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total, err
}
