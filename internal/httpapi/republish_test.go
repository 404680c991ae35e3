package httpapi

// republish_test.go pins the incremental republish. After every write,
// on every store topology, the view derived from the previous one must
// equal — entry by entry and byte for byte over HTTP — the view a
// from-scratch build produces from the same store. A second test runs
// readers against a server while a writer republishes behind them.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"diggsim/internal/digg"
	"diggsim/internal/durable"
	"diggsim/internal/graph"
	"diggsim/internal/rng"
	"diggsim/internal/shard"
	"diggsim/internal/wal"
)

// diffUsers is the user count of the differential tests' graph.
const diffUsers = 80

// diffCorpus builds a platform of n installed (compacted) stories, a
// third of them promoted, so the store starts past several vector
// leaves with a populated front page and ranking.
func diffCorpus(t testing.TB, n int) *digg.Platform {
	t.Helper()
	g, err := graph.PreferentialAttachment(rng.New(21), diffUsers, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, &digg.ClassicPromotion{VoteThreshold: 3, Window: digg.Day})
	r := rng.New(22)
	for i := 0; i < n; i++ {
		u := digg.UserID(r.Intn(diffUsers))
		st := &digg.Story{
			ID: digg.StoryID(i), Title: fmt.Sprintf("corpus-%d", i), Submitter: u,
			SubmittedAt: digg.Minutes(i), Votes: []digg.Vote{{Voter: u, At: digg.Minutes(i)}},
		}
		if r.Intn(3) == 0 {
			st.Promoted, st.PromotedAt = true, digg.Minutes(i+1)
		}
		if err := p.InstallStory(st); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// diffOpts are the durable options of the follower topology: no
// automatic checkpoints, so the primary's WAL holds every record the
// follower still needs.
func diffOpts() durable.Options {
	return durable.Options{
		Policy:          &digg.ClassicPromotion{VoteThreshold: 3, Window: digg.Day},
		Sync:            wal.SyncOS,
		CheckpointEvery: -1,
	}
}

// diffHarness drives random writes into one topology and compares the
// incrementally published view against a from-scratch build.
type diffHarness struct {
	t       *testing.T
	r       *rng.RNG
	srv     *Server      // serves the store under test
	handler http.Handler // srv's routes
	write   digg.Store   // where commands go
	// replicate, when set, moves records from write into the served
	// store (the follower topology). Called under srv.mu.
	replicate func()
	now       digg.Minutes
}

func newDiffHarness(t *testing.T, serve, write digg.Store) *diffHarness {
	h := &diffHarness{t: t, r: rng.New(23), write: write, now: 100_000}
	h.srv = NewServer(serve, h.now, nil)
	h.handler = h.srv.Handler()
	return h
}

// step applies one random command (or a burst), republishes as the
// write endpoints do, and checks the result.
func (h *diffHarness) step() {
	h.t.Helper()
	h.now++
	h.srv.SetNow(h.now)
	h.srv.mu.Lock()
	h.apply()
	if h.replicate != nil {
		h.replicate()
	}
	h.srv.mu.Unlock()
	h.srv.republish()
	h.check()
}

// recent picks a story among the newest ones, where the live (not
// compacted) stories are.
func (h *diffHarness) recent() digg.StoryID {
	n := h.write.NumStories()
	return digg.StoryID(n - 1 - h.r.Intn(min(n, 40)))
}

func (h *diffHarness) title() string {
	if h.r.Intn(4) == 0 {
		return "quote \" and \\ " + strconv.Itoa(h.r.Intn(1000))
	}
	return "story-" + strconv.Itoa(h.r.Intn(1000))
}

func (h *diffHarness) apply() {
	s, r := h.write, h.r
	user := func() digg.UserID { return digg.UserID(r.Intn(diffUsers)) }
	at := func() digg.Minutes {
		if r.Intn(8) == 0 {
			return h.now + 5 // future-dated: hidden from upcoming until the clock passes it
		}
		return h.now
	}
	switch r.Intn(10) {
	case 0, 1:
		_, _ = s.Submit(user(), h.title(), 0.5, at())
	case 2, 3, 4:
		_, _ = s.Digg(h.recent(), user(), h.now)
	case 5:
		_, _ = s.Digg(digg.StoryID(r.Intn(s.NumStories())), user(), h.now) // mostly compacted
	case 6:
		ops := make([]digg.DiggOp, 1+r.Intn(30))
		for i := range ops {
			ops[i] = digg.DiggOp{Story: h.recent(), User: user(), At: h.now}
		}
		if bw, ok := s.(digg.BulkWriter); ok {
			if err := bw.DiggMany(ops, make([]digg.DiggOutcome, len(ops))); err != nil {
				h.t.Fatal(err)
			}
			return
		}
		for _, op := range ops {
			_, _ = s.Digg(op.Story, op.User, op.At)
		}
	case 7:
		ops := make([]digg.SubmitOp, 1+r.Intn(5))
		for i := range ops {
			ops[i] = digg.SubmitOp{User: user(), Title: h.title(), Interest: 0.5, At: at()}
		}
		if bw, ok := s.(digg.BulkWriter); ok {
			if err := bw.SubmitMany(ops, make([]digg.SubmitOutcome, len(ops))); err != nil {
				h.t.Fatal(err)
			}
			return
		}
		for _, op := range ops {
			_, _ = s.Submit(op.User, op.Title, op.Interest, op.At)
		}
	case 8:
		_ = s.CompactStory(h.recent())
	default:
		// A duplicate vote: rejected, so nothing moves and the
		// republish must keep the current view.
		if st, err := s.Story(h.recent()); err == nil {
			_, _ = s.Digg(st.ID, st.Submitter, h.now)
		}
	}
}

// check builds the reference view from scratch and compares it with
// the published one, first structurally, then over HTTP.
func (h *diffHarness) check() {
	h.t.Helper()
	ref := NewServer(h.srv.store, h.now, nil)
	ref.mu = h.srv.mu
	refHandler := ref.Handler() // publishes a full build
	compareViews(h.t, h.srv.snap.view.Load(), ref.snap.view.Load())

	n := ref.snap.view.Load().stories.n
	paths := []string{
		"/v1/frontpage?limit=40", "/v1/upcoming?limit=40", "/v1/topusers?limit=25",
		"/v1/stories?limit=500",
		"/api/frontpage", "/api/frontpage?limit=100", "/api/upcoming?limit=100",
		"/api/topusers?limit=1000",
		"/api/stories?limit=50&offset=" + strconv.Itoa(max(n-30, 0)),
	}
	for k := 0; k < 3; k++ {
		paths = append(paths, "/v1/stories/"+strconv.Itoa(n-1-k))
		paths = append(paths, "/v1/stories/"+strconv.Itoa(h.r.Intn(n)))
	}
	for _, path := range paths {
		compareCrawl(h.t, h.handler, refHandler, path)
	}
}

// compareViews asserts that two views publish the same state.
func compareViews(t *testing.T, got, want *ReadView) {
	t.Helper()
	if got.Gen != want.Gen || got.etagStr != want.etagStr || fmt.Sprint(got.ShardGens) != fmt.Sprint(want.ShardGens) {
		t.Fatalf("view stamp: got gen %d %v, want gen %d %v", got.Gen, got.ShardGens, want.Gen, want.ShardGens)
	}
	if got.stories.n != want.stories.n {
		t.Fatalf("gen %d: %d stories, want %d", got.Gen, got.stories.n, want.stories.n)
	}
	for i := 0; i < want.stories.n; i++ {
		g, w := got.stories.get(i), want.stories.get(i)
		if g.ver != w.ver || g.id != w.id || g.submittedAt != w.submittedAt || !bytes.Equal(g.buf, w.buf) {
			t.Fatalf("gen %d: story %d entry\n got v%d %s\nwant v%d %s", got.Gen, i, g.ver, g.buf, w.ver, w.buf)
		}
	}
	sameEntries := func(what string, g, w []*sumEntry) {
		t.Helper()
		if a, b := appendEntries(nil, g), appendEntries(nil, w); !bytes.Equal(a, b) {
			t.Fatalf("gen %d: %s window\n got %s\nwant %s", got.Gen, what, a, b)
		}
	}
	sameEntries("front-page", got.front, want.front)
	sameEntries("upcoming", got.upcoming, want.upcoming)
	if got.fpTotal != want.fpTotal || got.upTotal != want.upTotal || got.topTotal != want.topTotal {
		t.Fatalf("gen %d: totals fp %d up %d top %d, want %d %d %d", got.Gen,
			got.fpTotal, got.upTotal, got.topTotal, want.fpTotal, want.upTotal, want.topTotal)
	}
	if !bytes.Equal(got.topBuf, want.topBuf) || fmt.Sprint(got.topEnds) != fmt.Sprint(want.topEnds) {
		t.Fatalf("gen %d: top users %s, want %s", got.Gen, got.topBuf, want.topBuf)
	}
}

// compareCrawl requests path from both handlers and follows
// next_cursor while the bodies agree, comparing status, ETag and body
// of every page.
func compareCrawl(t *testing.T, got, want http.Handler, path string) {
	t.Helper()
	for page := 0; page < 200; page++ {
		g, w := serveRecorded(got, path), serveRecorded(want, path)
		if g.Code != w.Code || g.Header().Get("ETag") != w.Header().Get("ETag") || g.Body.String() != w.Body.String() {
			t.Fatalf("%s: got %d %q %s\nwant %d %q %s", path, g.Code, g.Header().Get("ETag"), g.Body,
				w.Code, w.Header().Get("ETag"), w.Body)
		}
		var next struct {
			NextCursor string `json:"next_cursor"`
		}
		_ = json.Unmarshal(w.Body.Bytes(), &next)
		if next.NextCursor == "" {
			return
		}
		base := path
		if i := strings.Index(base, "&cursor="); i >= 0 {
			base = base[:i]
		}
		path = base + "&cursor=" + next.NextCursor
	}
	t.Fatalf("%s: crawl did not end", path)
}

func serveRecorded(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// diffSteps is the command count per topology, diffCorpN the corpus
// size (several vector leaves; TestStoryVecGrowth covers deeper tries)
// and promoteAtN the step at which the follower fails over.
const (
	diffSteps  = 300
	diffCorpN  = 250
	promoteAtN = 200
)

// TestRepublishMatchesFullBuild is the differential test of the
// incremental republish across the in-memory platform, a 2-shard
// store, and a 2-shard follower that lags unevenly per shard and is
// then promoted, trimming the shard tail its primary never completed.
func TestRepublishMatchesFullBuild(t *testing.T) {
	steps := diffSteps
	if testing.Short() {
		steps = 60
	}
	t.Run("platform", func(t *testing.T) {
		p := diffCorpus(t, diffCorpN)
		h := newDiffHarness(t, p, p)
		for i := 0; i < steps; i++ {
			h.step()
		}
	})
	t.Run("shard2", func(t *testing.T) {
		s, err := shard.FromPlatform(diffCorpus(t, diffCorpN), 2)
		if err != nil {
			t.Fatal(err)
		}
		h := newDiffHarness(t, s, s)
		for i := 0; i < steps; i++ {
			h.step()
		}
	})
	t.Run("follower", func(t *testing.T) {
		primary, follower := newDiffFollower(t, diffCorpus(t, diffCorpN))
		h := newDiffHarness(t, follower, primary)
		h.replicate = func() {
			// Each shard's stream advances independently, so stories
			// beyond the follower's dense prefix come and go.
			for i := 0; i < 2; i++ {
				if h.r.Intn(3) != 0 {
					replicateShard(t, primary, follower, i)
				}
			}
			follower.AbsorbReplicated()
		}
		for i := 0; i < steps; i++ {
			if i == promoteAtN*steps/diffSteps {
				h.promote(primary, follower)
			}
			h.step()
		}
	})
}

// promote leaves the follower holding a shard tail beyond its dense
// prefix, promotes it (trimming that tail) and makes it the write
// target.
func (h *diffHarness) promote(primary, follower *shard.Store) {
	h.t.Helper()
	h.srv.mu.Lock()
	for i := 0; i < 2; i++ {
		replicateShard(h.t, primary, follower, i)
	}
	follower.AbsorbReplicated()
	// Two submissions on the primary; only the second one's shard
	// streams before the failover, so it lands past a hole. A vote on
	// a served story of that shard streams with it: the trim resets
	// the shard's change log, so only the gap fallback republishes it.
	a, err := primary.Submit(1, "lost-a", 0.5, h.now)
	if err != nil {
		h.t.Fatal(err)
	}
	tail := (int(a.ID) + 1) % 2
	voted := false
	for id := int(a.ID) - 1; id >= 0 && !voted; id -= 2 {
		for u := 0; u < diffUsers && !voted; u++ {
			_, err := primary.Digg(digg.StoryID(id), digg.UserID(u), h.now)
			voted = err == nil
		}
	}
	if !voted {
		h.t.Fatal("no live story left to vote on before the failover")
	}
	if _, err := primary.Submit(2, "lost-b", 0.5, h.now); err != nil {
		h.t.Fatal(err)
	}
	replicateShard(h.t, primary, follower, tail)
	follower.AbsorbReplicated()
	trimmed, err := follower.PromoteToPrimary()
	if err != nil {
		h.t.Fatal(err)
	}
	if trimmed == 0 {
		h.t.Fatal("promotion trimmed nothing; the trim path went untested")
	}
	h.write, h.replicate = follower, nil
	h.srv.mu.Unlock()
	h.srv.republish()
	h.check()
}

// newDiffFollower creates a durable 2-shard primary over corpus and a
// follower seeded from its checkpoints, as a replication bootstrap
// would.
func newDiffFollower(t *testing.T, corpus *digg.Platform) (primary, follower *shard.Store) {
	t.Helper()
	pdir, fdir := t.TempDir(), t.TempDir()
	primary, err := shard.Create(pdir, corpus, 2, []byte(`{"test":"republish"}`), diffOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	for i := 0; i < 2; i++ {
		src := shard.ShardDirPath(pdir, i)
		g, err := durable.ReadGraphRaw(src)
		if err != nil {
			t.Fatal(err)
		}
		ck, _, err := durable.ReadNewestCheckpointRaw(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := durable.SeedReplica(shard.ShardDirPath(fdir, i), g, ck); err != nil {
			t.Fatal(err)
		}
	}
	follower, err = shard.OpenFollower(fdir, diffOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { follower.Close() })
	return primary, follower
}

// replicateShard ships every record of the primary's shard i that the
// follower has not applied yet.
func replicateShard(t testing.TB, primary, follower *shard.Store, i int) {
	t.Helper()
	from := follower.ShardAppliedLSN(i)
	r, err := wal.OpenReader(shard.ShardDirPath(primary.Dir(), i), from)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var entries []wal.Entry
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, wal.Entry{Type: rec.Type, Payload: bytes.Clone(rec.Payload)})
	}
	if err := follower.ApplyReplicated(i, from, entries); err != nil {
		t.Fatal(err)
	}
}

// TestRepublishUnderConcurrentReaders runs readers against the served
// routes while a writer applies bursts to a 2-shard store and
// republishes behind them. Every front page must be byte-identical to
// the view its ETag names, every detail self-consistent, and every
// stories crawl must see each story once and in order. Under -race it
// also checks that published views share nodes and fill detail caches
// without data races.
func TestRepublishUnderConcurrentReaders(t *testing.T) {
	s, err := shard.FromPlatform(diffCorpus(t, 300), 2)
	if err != nil {
		t.Fatal(err)
	}
	h := newDiffHarness(t, s, s)

	const limit = 10
	var pubMu sync.Mutex
	pubs := map[string]string{}
	record := func(v *ReadView) {
		front := v.front[:min(limit, len(v.front))]
		pubMu.Lock()
		pubs[v.etagStr] = "[" + string(appendEntries(nil, front)) + "]"
		pubMu.Unlock()
	}
	record(h.srv.snap.view.Load())
	h.srv.snap.onPublish = record

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(40 + w))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := concurrentRead(h.handler, r, pubs, &pubMu); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for i := 0; i < 150; i++ {
		h.now++
		h.srv.mu.Lock()
		h.apply()
		h.srv.mu.Unlock()
		h.srv.republish()
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// concurrentRead performs one random read and validates it.
func concurrentRead(h http.Handler, r *rng.RNG, pubs map[string]string, pubMu *sync.Mutex) error {
	switch r.Intn(3) {
	case 0:
		rec := serveRecorded(h, "/api/frontpage?limit=10")
		pubMu.Lock()
		want, ok := pubs[rec.Header().Get("ETag")]
		pubMu.Unlock()
		if !ok || rec.Body.String() != want {
			return fmt.Errorf("front page %s (published %v) torn:\n got %s\nwant %s", rec.Header().Get("ETag"), ok, rec.Body, want)
		}
	case 1:
		id := r.Intn(300)
		rec := serveRecorded(h, "/v1/stories/"+strconv.Itoa(id))
		var d StoryDetail
		if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil || int(d.ID) != id || d.Votes != len(d.VoteList) {
			return fmt.Errorf("story %d detail inconsistent (%v): %s", id, err, rec.Body)
		}
	default:
		const base = "/v1/stories?limit=97"
		next := 0
		for path := base; path != ""; {
			rec := serveRecorded(h, path)
			var page struct {
				Stories    []StorySummary `json:"stories"`
				NextCursor string         `json:"next_cursor"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
				return fmt.Errorf("%s: %v: %s", path, err, rec.Body)
			}
			for _, st := range page.Stories {
				if int(st.ID) != next {
					return fmt.Errorf("stories crawl: got story %d, want %d", st.ID, next)
				}
				next++
			}
			path = ""
			if page.NextCursor != "" {
				path = base + "&cursor=" + page.NextCursor
			}
		}
	}
	return nil
}

// TestStoryVecGrowth checks the persistent vector against a plain
// slice while it grows through two trie levels under appends and
// random updates, and that every earlier version still reads as it
// did when it was current.
func TestStoryVecGrowth(t *testing.T) {
	r := rng.New(5)
	var v storyVec
	var model []*sumEntry
	type probe struct {
		v storyVec
		i int
		e *sumEntry
	}
	var probes []probe
	for v.n <= capacity(2) {
		n := v.n + 1 + r.Intn(25000)
		var ups []vecUpdate
		for i := 0; i < 50 && v.n > 0; i++ {
			ups = append(ups, vecUpdate{i: r.Intn(v.n)})
		}
		slices.SortFunc(ups, func(a, b vecUpdate) int { return a.i - b.i })
		ups = slices.CompactFunc(ups, func(a, b vecUpdate) bool { return a.i == b.i })
		for i := v.n; i < n; i++ {
			ups = append(ups, vecUpdate{i: i})
		}
		for k := range ups {
			ups[k].e = &sumEntry{id: digg.StoryID(ups[k].i)}
		}
		old := v
		v = v.with(n, ups)
		model = append(model, make([]*sumEntry, n-len(model))...)
		for _, u := range ups {
			if u.i < old.n {
				probes = append(probes, probe{old, u.i, old.get(u.i)})
			}
			model[u.i] = u.e
		}
		if v.n != len(model) || capacity(v.height) < v.n || (v.height > 1 && capacity(v.height-1) >= v.n) {
			t.Fatalf("n=%d height=%d for %d entries", v.n, v.height, len(model))
		}
		for i, want := range model {
			if got := v.get(i); got != want {
				t.Fatalf("n=%d: entry %d differs from the model", v.n, i)
			}
		}
	}
	for _, p := range probes {
		if p.v.get(p.i) != p.e {
			t.Fatalf("an update changed entry %d of an earlier version", p.i)
		}
	}
}
