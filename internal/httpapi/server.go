package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/digg"
	"diggsim/internal/graph"
	"diggsim/internal/live"
	"diggsim/internal/obs"
	"diggsim/internal/repl"
)

// Server serves a digg.Store over HTTP/JSON: the versioned /v1/*
// surface (see v1.go and internal/apiv1) plus the deprecated /api/*
// compatibility aliases.
//
// Reads and writes travel different paths. The hot read endpoints are
// lock-free: they serve pre-serialized JSON from an immutable ReadView
// snapshot published through an atomic pointer (see snapshot.go), so
// heavy scraping never waits behind the simulation writer. Writes —
// HTTP submissions and diggs (single or batch), or the live stepper
// when a live.Service is attached — take the write lock, mutate the
// store, and republish the snapshot before responding, so a client
// always reads its own writes.
//
// The RWMutex remains the fallback for requests the snapshot cannot
// answer (limits past the pre-rendered depth, stories newer than the
// last publication) and for genuinely point-in-time reads.
type Server struct {
	// mu guards the store. With AttachLive it is replaced by the
	// service's lock so the simulation writer, snapshot rebuilds and
	// fallback readers interleave on one mutex.
	mu    *sync.RWMutex
	store digg.Store
	// batcher is the store's optional batch-grouping capability
	// (digg.Batcher). When present — a durable store — the batch write
	// endpoints bracket their loop in it, so all <= apiv1.MaxBatch
	// writes of a request cost one write-ahead append and one fsync.
	batcher digg.Batcher
	// bulk is the store's optional concurrent bulk-write capability
	// (digg.BulkWriter). When present — a sharded store — the batch
	// write endpoints hand it the whole burst instead of looping, so
	// per-shard sub-batches apply and fsync concurrently. BulkWriter
	// manages its own batching, so the two capabilities are mutually
	// exclusive on the write path: bulk wins when both exist.
	bulk digg.BulkWriter
	// sharded is the store's optional shard-layout capability
	// (digg.Sharded). When present, cursors and read views carry the
	// per-shard generation vector and decoded cursors are validated
	// against the serving shard count.
	sharded digg.Sharded
	// graph is the store's immutable social graph, cached so the user
	// endpoints never need the store lock or an interface call.
	graph *graph.Graph
	now   digg.Minutes
	// nowFn, when set, overrides the static now field (live sim clock,
	// or a wall-advancing clock in static mode). It must be safe to
	// call without holding mu.
	nowFn func() digg.Minutes
	// rankOf maps users to reputation ranks. It must be safe for
	// concurrent use without the store lock (the platform default and
	// dataset snapshots both are).
	rankOf func(digg.UserID) int
	// storeRanks records that rankOf is the store default, so user
	// handlers can serve ranks from the snapshot's immutable map
	// instead of calling through.
	storeRanks bool
	live       *live.Service
	metrics    *Metrics
	snap       *snapshotStore

	// repl/replSrc/replMaxLag are the replication wiring: the attached
	// follower (write fencing, lag reporting, readiness), the node's own
	// streaming surface mounted under /repl/v1/, and the /readyz
	// staleness bound. See repl.go.
	repl       *repl.Follower
	replSrc    *repl.Source
	replMaxLag time.Duration

	// timeline/slos are the metrics-timeline wiring (/debug/timeline
	// and the /readyz burn-rate gate). See timeline.go.
	timeline *obs.Timeline
	slos     []obs.SLO
	// writeTrace, when set, forwards the request trace ID to the
	// durable layer before each write, so the WAL commit stamp — and
	// through it the replication heartbeat — carries the trace of the
	// write that produced it. Advisory: concurrent writers may
	// interleave, and the stamp names one of them.
	writeTrace func(uint64)
}

// NewServer wraps a digg.Store (in practice the in-memory
// *digg.Platform; the interface is the seam future shard or replica
// backends plug into). now is the clock used for upcoming-queue
// visibility and write operations; rankOf maps users to reputation
// ranks for the user endpoints (nil means store-derived ranks). A
// non-nil rankOf is called without the store lock and must be safe for
// concurrent use while the store mutates — read from an immutable
// snapshot (like dataset rank maps) or synchronize internally; do not
// pass a closure over live platform state.
func NewServer(store digg.Store, now digg.Minutes, rankOf func(digg.UserID) int) *Server {
	s := &Server{
		mu:     &sync.RWMutex{},
		store:  store,
		graph:  store.SocialGraph(),
		now:    now,
		rankOf: rankOf,
		snap:   newSnapshotStore(),
	}
	s.batcher, _ = store.(digg.Batcher)
	s.bulk, _ = store.(digg.BulkWriter)
	s.sharded, _ = store.(digg.Sharded)
	if rankOf == nil {
		s.rankOf = store.UserRank
		s.storeRanks = true
	}
	return s
}

// SetNow advances the server clock (static mode; a SetNowFunc clock
// takes precedence). The snapshot's upcoming queue filters by the
// clock at serve time, so no republication is needed.
func (s *Server) SetNow(now digg.Minutes) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// SetNowFunc installs a clock function consulted on every request that
// needs the current sim time (upcoming-queue visibility, default vote
// and submission timestamps), fixing the frozen-clock staleness of a
// static server. fn must be safe for concurrent use and must not
// acquire the server lock. Call before serving traffic.
func (s *Server) SetNowFunc(fn func() digg.Minutes) { s.nowFn = fn }

// AttachLive connects a live simulation service: the server adopts the
// service's platform lock (so snapshot rebuilds and fallback readers
// interleave safely with the simulation writer), serves the service's
// clock, republishes the read snapshot after every simulation step,
// and exposes the SSE stream feed plus live metrics on the stats
// endpoints. Call before Handler and before the service runs.
func (s *Server) AttachLive(svc *live.Service) {
	s.mu = svc.Locker()
	s.nowFn = svc.Now
	s.live = svc
	svc.SetAfterStep(s.republish)
}

// AttachMetrics includes the middleware's request counters in stats
// responses. Call before Handler.
func (s *Server) AttachMetrics(m *Metrics) { s.metrics = m }

// SetWriteTraceFunc registers the durable layer's write-trace hook
// (durable.Store.SetWriteTrace, or a fan-out over shards): write
// handlers call it with the request's trace ID before mutating the
// store, under the write lock. Call before Handler.
func (s *Server) SetWriteTraceFunc(fn func(uint64)) { s.writeTrace = fn }

// stampWriteTrace forwards r's trace ID to the durable layer. Callers
// hold the write lock, so the stamp pairs with this request's commit
// (single-writer stores; sharded stores interleave, which the
// advisory contract allows).
func (s *Server) stampWriteTrace(trace uint64) {
	if s.writeTrace != nil && trace != 0 {
		s.writeTrace(trace)
	}
}

// requestTraceID returns the trace ID the Tracer middleware attached
// to the request, or zero when untraced (benchmarks, bare tests).
func requestTraceID(r *http.Request) uint64 {
	if t := obs.TraceFrom(r.Context()); t != nil {
		return t.ID()
	}
	return 0
}

// clock returns the current sim time: the nowFn clock when installed,
// the static now otherwise. Callers must not hold the lock.
func (s *Server) clock() digg.Minutes {
	if s.nowFn != nil {
		return s.nowFn()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.now
}

// Handler publishes the initial read snapshot and returns the HTTP
// routing table: the versioned /v1/* surface plus the deprecated
// /api/* aliases. Every non-streaming route is wrapped in its route
// class's latency histogram (see obs.go); the /api/* alias and /v1/*
// form of an endpoint share a class.
func (s *Server) Handler() http.Handler {
	s.republish()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", timed("healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("GET /readyz", timed("healthz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", timed("metrics", s.handleMetricsProm))
	mux.HandleFunc("GET /debug/obs", s.handleObsDump)
	if s.timeline != nil {
		mux.HandleFunc("GET /debug/timeline", s.handleTimeline)
	}
	// Deprecated unversioned aliases (offset/limit, string errors).
	mux.HandleFunc("GET /api/frontpage", timed("frontpage", s.handleFrontPage))
	mux.HandleFunc("GET /api/stories", timed("stories", s.handleStoryList))
	mux.HandleFunc("GET /api/upcoming", timed("upcoming", s.handleUpcoming))
	mux.HandleFunc("GET /api/stories/{id}", timed("story", s.handleStory))
	mux.HandleFunc("POST /api/stories", timed("submit", s.handleSubmit))
	mux.HandleFunc("POST /api/stories/{id}/digg", timed("digg", s.handleDigg))
	mux.HandleFunc("GET /api/users/{id}", timed("user", s.handleUser))
	mux.HandleFunc("GET /api/users/{id}/fans", timed("links", s.handleFans))
	mux.HandleFunc("GET /api/users/{id}/friends", timed("links", s.handleFriends))
	mux.HandleFunc("GET /api/topusers", timed("topusers", s.handleTopUsers))
	mux.HandleFunc("GET /api/stats", timed("stats", s.handleStats))
	if s.live != nil {
		// The SSE stream is long-lived; its duration is connection
		// lifetime, not serving latency, so it stays uninstrumented.
		mux.HandleFunc("GET /api/stream", s.handleStream)
	}
	if s.replSrc != nil {
		// The node's own replication surface: streaming for followers,
		// status/promote for elections.
		mux.Handle("/repl/v1/", http.StripPrefix("/repl/v1", s.replSrc.Handler()))
	}
	s.mountV1(mux)
	if s.repl != nil {
		return replLagMiddleware(s.repl, mux)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// maxWriteBody caps the request body of every write endpoint: room for
// a full apiv1.MaxBatch request at up to 1 KiB per item. Bodies are
// decoded before the batch size is checked, so without the cap one
// request could make the server allocate in proportion to what it sent.
const maxWriteBody = apiv1.MaxBatch << 10

// decodeWriteBody decodes a write request's JSON body into v, reading
// at most maxWriteBody bytes; a longer body fails like invalid JSON.
func decodeWriteBody(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWriteBody)).Decode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// writeRaw sends pre-encoded JSON chunks with zero per-request header
// allocations (the shared value slice is assigned, not copied).
func writeRaw(w http.ResponseWriter, chunks ...[]byte) {
	w.Header()["Content-Type"] = headerJSON
	w.WriteHeader(http.StatusOK)
	for _, c := range chunks {
		_, _ = w.Write(c)
	}
}

// pathID parses the {id} path segment. Story and user IDs are int32
// (digg.StoryID, graph.NodeID), so anything outside [0, MaxInt32] is
// malformed rather than silently truncated onto another ID.
func pathID(r *http.Request) (int, error) {
	raw := r.PathValue("id")
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("invalid id %q", raw)
	}
	return int(v), nil
}

func (s *Server) handleFrontPage(w http.ResponseWriter, r *http.Request) {
	limit, err := queryIntRaw(r.URL.RawQuery, "limit", 15)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	view := s.snap.view.Load()
	rendered := 0
	if view != nil {
		rendered = len(view.front)
	}
	if view == nil || (view.fpTotal > rendered && (limit <= 0 || limit > rendered)) {
		s.frontPageLocked(w, limit)
		return
	}
	h := w.Header()
	h["Etag"] = view.etag
	h["Cache-Control"] = headerRevalidate
	if etagMatches(r.Header.Get("If-None-Match"), view.etagStr) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	front := view.front
	if limit > 0 && limit < rendered {
		front = front[:limit]
	}
	writeEntries(w, front)
}

// writeEntries sends entries as a JSON array, assembled in a pooled
// buffer so the response is one write and no allocation.
func writeEntries(w http.ResponseWriter, entries []*sumEntry) {
	bp := encBufPool.Get().(*[]byte)
	b := append((*bp)[:0], '[')
	b = append(appendEntries(b, entries), ']')
	writeRaw(w, b)
	*bp = b[:0]
	encBufPool.Put(bp)
}

// frontPageLocked is the point-in-time fallback for limits past the
// snapshot's pre-rendered depth.
func (s *Server) frontPageLocked(w http.ResponseWriter, limit int) {
	s.mu.RLock()
	stories := s.store.FrontPage(limit)
	out := make([]StorySummary, len(stories))
	for i, st := range stories {
		out[i] = summarize(st)
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleUpcoming(w http.ResponseWriter, r *http.Request) {
	limit, err := queryIntRaw(r.URL.RawQuery, "limit", 15)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	now := s.clock()
	view := s.snap.view.Load()
	if view == nil {
		s.upcomingLocked(w, now, limit)
		return
	}
	// The visibility filter runs at serve time: pre-rendered entries
	// submitted after the current clock are skipped, so a static
	// server's queue evolves with wall time without republication.
	entries := view.upcoming
	visible := 0
	for _, e := range entries {
		if e.submittedAt <= int64(now) {
			visible++
		}
	}
	skipped := visible < len(entries)
	serveN := visible
	if limit > 0 && limit < serveN {
		serveN = limit
	}
	// If the pre-rendered window cannot satisfy the request (deeper
	// entries exist on the platform), fall back to the locked scan.
	if len(entries) < view.upTotal && (limit <= 0 || serveN < limit) {
		s.upcomingLocked(w, now, limit)
		return
	}
	h := w.Header()
	if !skipped {
		// The rendered queue only changes with the platform generation
		// while no future-dated entries are pending, so the snapshot
		// ETag is a valid strong validator.
		h["Etag"] = view.etag
		h["Cache-Control"] = headerRevalidate
		if etagMatches(r.Header.Get("If-None-Match"), view.etagStr) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	if !skipped {
		writeEntries(w, entries[:serveN])
		return
	}
	bp := encBufPool.Get().(*[]byte)
	b := append((*bp)[:0], '[')
	written := 0
	for _, e := range entries {
		if written >= serveN {
			break
		}
		if e.submittedAt > int64(now) {
			continue
		}
		if written > 0 {
			b = append(b, ',')
		}
		b = append(b, e.buf...)
		written++
	}
	writeRaw(w, append(b, ']'))
	*bp = b[:0]
	encBufPool.Put(bp)
}

func (s *Server) upcomingLocked(w http.ResponseWriter, now digg.Minutes, limit int) {
	s.mu.RLock()
	stories := s.store.Upcoming(now, limit)
	out := make([]StorySummary, len(stories))
	for i, st := range stories {
		out[i] = summarize(st)
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, out)
}

// handleStoryList serves a paginated listing of every story in
// submission order: GET /api/stories?offset=0&limit=50 (deprecated;
// /v1/stories paginates with cursors).
func (s *Server) handleStoryList(w http.ResponseWriter, r *http.Request) {
	offset, err := queryIntRaw(r.URL.RawQuery, "offset", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	limit, err := queryIntRaw(r.URL.RawQuery, "limit", 50)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if offset < 0 || limit < 0 {
		writeError(w, http.StatusBadRequest, "offset and limit must be non-negative")
		return
	}
	if limit > 1000 {
		limit = 1000
	}
	view := s.snap.view.Load()
	if view == nil {
		s.storyListLocked(w, offset, limit)
		return
	}
	s.storyListFromView(w, view, offset, limit)
}

// storyListFromView cuts an offset/limit page entirely from one
// published view, so total and stories always describe the same
// generation.
func (s *Server) storyListFromView(w http.ResponseWriter, view *ReadView, offset, limit int) {
	total := view.stories.n
	bp := encBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, `{"total":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, `,"offset":`...)
	b = strconv.AppendInt(b, int64(offset), 10)
	b = append(b, `,"stories":`...)
	if offset < total {
		end := offset + limit
		if end > total {
			end = total
		}
		b = append(b, '[')
		for i := offset; i < end; i++ {
			if i > offset {
				b = append(b, ',')
			}
			b = append(b, view.stories.get(i).buf...)
		}
		b = append(b, ']')
	} else {
		b = append(b, `null`...)
	}
	b = append(b, '}')
	writeRaw(w, b)
	*bp = b[:0]
	encBufPool.Put(bp)
}

// storyListLocked is the fallback when no snapshot is published yet.
// Under the live writer the snapshot and locked paths can disagree on
// the story count, so a page is never assembled from a mix of the two:
// if a view at the current platform generation exists by the time the
// lock is held (published between the caller's nil load and the lock
// acquisition), the whole page is re-served from that view; otherwise
// total and stories both come from one point-in-time read under a
// single RLock.
func (s *Server) storyListLocked(w http.ResponseWriter, offset, limit int) {
	s.mu.RLock()
	if view := s.snap.view.Load(); view != nil && view.Gen == s.store.Generation() {
		s.mu.RUnlock()
		s.storyListFromView(w, view, offset, limit)
		return
	}
	all := s.store.Stories()
	var page StoryPage
	page.Total = len(all)
	page.Offset = offset
	if offset < len(all) {
		end := offset + limit
		if end > len(all) {
			end = len(all)
		}
		page.Stories = make([]StorySummary, 0, end-offset)
		for _, st := range all[offset:end] {
			page.Stories = append(page.Stories, summarize(st))
		}
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, page)
}

func (s *Server) handleStory(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	buf, ok, err := s.storyDetailBytes(digg.StoryID(id))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	if ok {
		writeRaw(w, buf)
		return
	}
	s.storyLocked(w, digg.StoryID(id))
}

// storyDetailBytes serves a story's detail JSON from the cache in the
// story's published entry, encoding on miss. ok reports whether the
// snapshot path could answer; when false (no view yet, or a story
// newer than the view) the caller should use its locked fallback.
func (s *Server) storyDetailBytes(id digg.StoryID) (_ []byte, ok bool, err error) {
	view := s.snap.view.Load()
	if view == nil || int(id) >= view.stories.n {
		return nil, false, nil
	}
	e := view.stories.get(int(id))
	if d := e.detail.Load(); d != nil {
		return *d, true, nil
	}
	// Miss: encode under the read lock at the store's current version.
	// Only an encoding of the entry's own version is cached in it; a
	// newer one (a write the view has not caught up with) is served
	// once and left to the entry the next publication creates.
	s.mu.RLock()
	st, err := s.store.Story(id)
	if err != nil {
		s.mu.RUnlock()
		return nil, false, err
	}
	current := s.store.StoryVersion(st.ID) == e.ver
	enc := appendDetail(make([]byte, 0, 128+28*len(st.Votes)), st)
	s.mu.RUnlock()
	if current {
		e.detail.Store(&enc)
	}
	return enc, true, nil
}

func (s *Server) storyLocked(w http.ResponseWriter, id digg.StoryID) {
	s.mu.RLock()
	st, err := s.store.Story(id)
	var out StoryDetail
	if err == nil {
		out = detail(st)
	}
	s.mu.RUnlock()
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.fence(w) {
		return
	}
	var req SubmitRequest
	if err := decodeWriteBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	st, err := s.submit(req, requestTraceID(r))
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

// submit performs one submission write and republishes the snapshot,
// observing the accept→front-page-visible freshness span.
func (s *Server) submit(req SubmitRequest, trace uint64) (StoryDetail, error) {
	start := obs.Now()
	at := digg.Minutes(req.At)
	if at == 0 {
		at = s.clock()
	}
	s.mu.Lock()
	s.stampWriteTrace(trace)
	st, err := s.store.Submit(req.Submitter, req.Title, req.Interest, at)
	var out StoryDetail
	if err == nil {
		out = detail(st)
	}
	s.mu.Unlock()
	if err != nil {
		return StoryDetail{}, err
	}
	s.republish()
	histFreshHTTP.Observe(time.Duration(obs.Now() - start))
	return out, nil
}

func (s *Server) handleDigg(w http.ResponseWriter, r *http.Request) {
	if s.fence(w) {
		return
	}
	id, err := pathID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var req DiggRequest
	if err := decodeWriteBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	res, err := s.digg(digg.StoryID(id), req, requestTraceID(r))
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// digg performs one vote write and republishes the snapshot, observing
// the accept→front-page-visible freshness span.
func (s *Server) digg(id digg.StoryID, req DiggRequest, trace uint64) (DiggResponse, error) {
	start := obs.Now()
	at := digg.Minutes(req.At)
	if at == 0 {
		at = s.clock()
	}
	s.mu.Lock()
	s.stampWriteTrace(trace)
	res, err := s.store.Digg(id, req.Voter, at)
	s.mu.Unlock()
	if err != nil {
		return DiggResponse{}, err
	}
	s.republish()
	histFreshHTTP.Observe(time.Duration(obs.Now() - start))
	return DiggResponse{InNetwork: res.InNetwork, Promoted: res.Promoted, Votes: res.Votes}, nil
}

func (s *Server) handleUser(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	bp, buf, ok := s.userInfoBytes(digg.UserID(id))
	if !ok {
		writeError(w, http.StatusNotFound, "no such user")
		return
	}
	writeRaw(w, buf)
	*bp = buf[:0]
	encBufPool.Put(bp)
}

// userInfoBytes renders a user profile into a pooled buffer. The
// caller must return it with *bp = buf[:0]; encBufPool.Put(bp) after
// writing (the pooled pointer rides along so no fresh *[]byte header
// is allocated per request). ok is false for unknown users.
func (s *Server) userInfoBytes(u digg.UserID) (bp *[]byte, buf []byte, ok bool) {
	// The social graph is immutable once built, so degree lookups need
	// no lock at all.
	g := s.graph
	if int(u) >= g.NumNodes() {
		return nil, nil, false
	}
	var rank int
	view := s.snap.view.Load()
	switch {
	case s.storeRanks && view != nil:
		rank = view.ranks[u]
	case s.storeRanks:
		// No snapshot yet: the platform rank cache fill reads promotion
		// state, so exclude mutators.
		s.mu.RLock()
		rank = s.rankOf(u)
		s.mu.RUnlock()
	default:
		rank = s.rankOf(u)
	}
	bp = encBufPool.Get().(*[]byte)
	return bp, appendUserInfo((*bp)[:0], u, g.InDegree(u), g.OutDegree(u), rank), true
}

func (s *Server) handleFans(w http.ResponseWriter, r *http.Request) {
	s.handleLinks(w, r, true)
}

func (s *Server) handleFriends(w http.ResponseWriter, r *http.Request) {
	s.handleLinks(w, r, false)
}

// links returns the fan or friend list of u from the immutable graph
// (no lock), or ok=false for unknown users.
func (s *Server) links(u digg.UserID, fans bool) ([]digg.UserID, bool) {
	g := s.graph
	if int(u) >= g.NumNodes() {
		return nil, false
	}
	if fans {
		return g.Fans(u), true
	}
	return g.Friends(u), true
}

func (s *Server) handleLinks(w http.ResponseWriter, r *http.Request, fans bool) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	u := digg.UserID(id)
	links, ok := s.links(u, fans)
	if !ok {
		writeError(w, http.StatusNotFound, "no such user")
		return
	}
	writeJSON(w, http.StatusOK, UserLinks{ID: u, Users: links})
}

func (s *Server) handleTopUsers(w http.ResponseWriter, r *http.Request) {
	limit, err := queryIntRaw(r.URL.RawQuery, "limit", 100)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if limit <= 0 { // digg.Platform.TopUsers treats k <= 0 as "none"
		writeRaw(w, emptyArray)
		return
	}
	view := s.snap.view.Load()
	rendered := 0
	if view != nil {
		rendered = len(view.topEnds)
	}
	if view == nil || (view.topTotal > rendered && limit > rendered) {
		s.topUsersLocked(w, limit)
		return
	}
	if limit >= rendered {
		writeRaw(w, view.topBuf)
		return
	}
	writeRaw(w, view.topBuf[:view.topEnds[limit-1]], bracketClose)
}

func (s *Server) topUsersLocked(w http.ResponseWriter, limit int) {
	s.mu.RLock()
	users := s.store.TopUsers(limit)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, users)
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, digg.ErrUnknownUser):
		return http.StatusBadRequest
	case errors.Is(err, digg.ErrAlreadyVoted):
		return http.StatusConflict
	case errors.Is(err, digg.ErrStoryCompacted):
		return http.StatusGone
	case errors.Is(err, digg.ErrNoStory):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}
