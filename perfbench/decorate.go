package main

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diggsim/internal/digg"
	"diggsim/internal/repl"
	"diggsim/internal/shard"
	"diggsim/internal/wal"
)

// layerStat is one layer boundary's work: calls, busy time, units of
// work inside those calls (votes, records, events), and failures.
type layerStat struct {
	calls, busy, units, failed atomic.Int64
}

func (l *layerStat) meanNS() float64 {
	if n := l.calls.Load(); n > 0 {
		return float64(l.busy.Load()) / float64(n)
	}
	return 0
}

// tracer records spans around the benchmark's calls into each layer,
// in memory, while on. The traced run flips it on and off in equal
// slices so traced and untraced requests share the same conditions.
type tracer struct {
	on     atomic.Bool
	layers map[string]*layerStat // fixed at construction; values are atomic

	mu sync.Mutex
	// server and client hold read-request durations by X-Trace-Id, so
	// the SDK's own cost is a join of the two.
	server, client map[string]time.Duration
}

// layer names the tracer records.
var layerNames = []string{
	"httpapi.story", "httpapi.frontpage", "httpapi.frontpage_304", "httpapi.upcoming", "httpapi.stories_page",
	"httpapi.batch_digg", "httpapi.submit", "httpapi.submit_batch",
	"store.submit", "shard.digg_many", "shard.submit_many", "repl.apply",
	"live.step", "live.drain",
}

func newTracer() *tracer {
	t := &tracer{layers: map[string]*layerStat{}, server: map[string]time.Duration{}, client: map[string]time.Duration{}}
	for _, n := range layerNames {
		t.layers[n] = &layerStat{}
	}
	return t
}

func (t *tracer) l(name string) *layerStat { return t.layers[name] }

// record adds one span ending now to a layer, if tracing is on.
func (t *tracer) record(name string, start time.Time, units int, err error) {
	if !t.on.Load() {
		return
	}
	l := t.layers[name]
	l.calls.Add(1)
	l.busy.Add(int64(time.Since(start)))
	l.units.Add(int64(units))
	if err != nil {
		l.failed.Add(1)
	}
}

// clientCall records an SDK read call's duration under its trace ID.
func (t *tracer) clientCall(id string, d time.Duration) {
	if t.on.Load() && id != "" {
		t.mu.Lock()
		t.client[id] = d
		t.mu.Unlock()
	}
}

// clientOverhead joins client and server read spans by trace ID and
// returns the mean of client time minus server handler time.
func (t *tracer) clientOverhead() (mean float64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for id, c := range t.client {
		if s, ok := t.server[id]; ok {
			sum += c - s
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sum) / float64(n), n
}

// route classifies the requests the tracer times.
func route(r *http.Request) (name string, read bool) {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodGet && p == "/v1/frontpage":
		return "httpapi.frontpage", true
	case r.Method == http.MethodGet && p == "/v1/upcoming":
		return "httpapi.upcoming", true
	case r.Method == http.MethodGet && p == "/v1/stories":
		return "httpapi.stories_page", true
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/stories/"):
		return "httpapi.story", true
	case r.Method == http.MethodPost && p == "/v1/diggs:batch":
		return "httpapi.batch_digg", false
	case r.Method == http.MethodPost && p == "/v1/stories:batch":
		return "httpapi.submit_batch", false
	case r.Method == http.MethodPost && p == "/v1/stories":
		return "httpapi.submit", false
	}
	return "", false
}

// middleware times the whole diggd handler chain per route. Streams and
// unclassified routes pass through untouched.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, read := route(r)
		if name == "" || !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		d := time.Since(start)
		t.record(name, start, 0, nil)
		if name == "httpapi.frontpage" && sw.status == http.StatusNotModified {
			t.record("httpapi.frontpage_304", start, 0, nil)
		}
		if read {
			t.mu.Lock()
			t.server[r.Header.Get("X-Trace-Id")] = d
			t.mu.Unlock()
		}
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// statser is the shard statistics capability the metrics endpoint
// type-asserts.
type statser interface{ Stats() []shard.Stat }

// tracedStore times the store commands the write path calls. It
// forwards every other Store method unchanged.
type tracedStore struct {
	digg.Store
	tr *tracer
}

func (s tracedStore) Submit(u digg.UserID, title string, interest float64, t digg.Minutes) (*digg.Story, error) {
	start := time.Now()
	st, err := s.Store.Submit(u, title, interest, t)
	s.tr.record("store.submit", start, 1, err)
	return st, err
}

// tracedDurable decorates an unsharded durable store: Store and
// Batcher.
type tracedDurable struct {
	tracedStore
	b digg.Batcher
}

func (s tracedDurable) BeginBatch()     { s.b.BeginBatch() }
func (s tracedDurable) EndBatch() error { return s.b.EndBatch() }

// tracedShard decorates a sharded store: Store, Batcher, BulkWriter,
// Sharded and Stats.
type tracedShard struct {
	tracedStore
	b  digg.Batcher
	bw digg.BulkWriter
	sh digg.Sharded
	st statser
}

func (s tracedShard) BeginBatch()     { s.b.BeginBatch() }
func (s tracedShard) EndBatch() error { return s.b.EndBatch() }
func (s tracedShard) ShardCount() int { return s.sh.ShardCount() }
func (s tracedShard) ShardGenerations(dst []uint64) []uint64 {
	return s.sh.ShardGenerations(dst)
}
func (s tracedShard) Stats() []shard.Stat { return s.st.Stats() }

func (s tracedShard) DiggMany(ops []digg.DiggOp, out []digg.DiggOutcome) error {
	start := time.Now()
	err := s.bw.DiggMany(ops, out)
	accepted := 0
	for _, o := range out {
		if o.Err == nil {
			accepted++
		}
	}
	s.tr.record("shard.digg_many", start, accepted, err)
	return err
}

func (s tracedShard) SubmitMany(ops []digg.SubmitOp, out []digg.SubmitOutcome) error {
	start := time.Now()
	err := s.bw.SubmitMany(ops, out)
	s.tr.record("shard.submit_many", start, len(ops), err)
	return err
}

// capabilities lists which optional interfaces the server and the live
// service type-assert a store for, in a fixed order: Batcher,
// BulkWriter, Sharded, Stats.
func capabilities(s digg.Store) [4]bool {
	_, b := s.(digg.Batcher)
	_, bw := s.(digg.BulkWriter)
	_, sh := s.(digg.Sharded)
	_, st := s.(statser)
	return [4]bool{b, bw, sh, st}
}

// wrapStore decorates s with the decorator that has exactly s's
// capabilities: the server and the live service discover batching,
// bulk writes and sharding by type assertion, so a decorator that hid
// one would change the program under test.
func wrapStore(s digg.Store, tr *tracer) (digg.Store, error) {
	base := tracedStore{s, tr}
	switch capabilities(s) {
	case [4]bool{}:
		return base, nil
	case [4]bool{true, false, false, false}:
		return tracedDurable{base, s.(digg.Batcher)}, nil
	case [4]bool{true, true, true, true}:
		return tracedShard{base, s.(digg.Batcher), s.(digg.BulkWriter), s.(digg.Sharded), s.(statser)}, nil
	}
	return nil, fmt.Errorf("no decorator for a %T with capabilities %v", s, capabilities(s))
}

// tracedTarget times a follower's replication applies.
type tracedTarget struct {
	repl.Target
	tr *tracer
}

func (t tracedTarget) ApplyReplicated(shard int, lsn uint64, entries []wal.Entry) error {
	start := time.Now()
	err := t.Target.ApplyReplicated(shard, lsn, entries)
	t.tr.record("repl.apply", start, len(entries), err)
	return err
}
