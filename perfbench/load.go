package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/digg"
	"diggsim/internal/httpapi"
	"diggsim/internal/live"
	"diggsim/internal/rng"
)

// zipfS is the attention skew story reads and votes are drawn with,
// in the range LermanG08 measures for Digg.
const zipfS = 0.8

// statusCounts tallies HTTP status classes a client saw.
type statusCounts struct {
	ok, notModified, other atomic.Int64
}

// traceKey carries a *string through a request context: the counting
// transport stores the X-Trace-Id the SDK minted for the call there, so
// the caller can join its own timing with the server's spans.
type traceKey struct{}

// countingTransport counts response statuses and reports each call's
// trace ID to a caller that asked for it.
type countingTransport struct {
	base   http.RoundTripper
	counts *statusCounts
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if p, ok := r.Context().Value(traceKey{}).(*string); ok {
		*p = r.Header.Get("X-Trace-Id")
	}
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		t.counts.ok.Add(1)
	case http.StatusNotModified:
		t.counts.notModified.Add(1)
	default:
		t.counts.other.Add(1)
	}
	return resp, nil
}

// newClient returns an SDK client that never retries, so every failure
// is counted, and keeps one idle connection per worker.
func newClient(url string, counts *statusCounts) *httpapi.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 4
	return httpapi.NewClientWith(url, httpapi.ClientOptions{
		HTTPClient: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &countingTransport{base: tr, counts: counts},
		},
		MaxRetries:            -1,
		DisableTransientRetry: true,
	})
}

// failures records failed operations and keeps the first few messages.
type failures struct {
	mu   sync.Mutex
	t    tally
	msgs []string
}

func (f *failures) attempt(n int) {
	f.mu.Lock()
	f.t.Attempted += n
	f.mu.Unlock()
}

func (f *failures) reject(n int) {
	f.mu.Lock()
	f.t.Rejected += n
	f.mu.Unlock()
}

func (f *failures) fail(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t.Failed++
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (f *failures) tally() tally {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

// samples is a goroutine-safe latency sample list.
type samples struct {
	mu sync.Mutex
	s  []sample
}

// add records the latency of an op due at due, completing now.
func (s *samples) add(due time.Time) {
	d := time.Since(due)
	s.mu.Lock()
	s.s = append(s.s, sample{due, d})
	s.mu.Unlock()
}

func (s *samples) reset() {
	s.mu.Lock()
	s.s = nil
	s.mu.Unlock()
}

func (s *samples) get() []sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.s)
}

// summary pools samples into one exact-quantile summary.
func summary(s []sample) latency {
	d := make([]time.Duration, len(s))
	for i, x := range s {
		d[i] = x.d
	}
	return summarize(d)
}

// readMix drives the /v1 read surface: Zipf-ranked story details,
// the front page (revalidated with its ETag by the SDK), the upcoming
// queue, and cursor pages of /v1/stories. Each worker keeps its own
// random stream and its own crawl.
type readMix struct {
	c       *httpapi.Client
	perm    []digg.StoryID // Zipf rank -> story id
	workers []*reader
	lat     samples
	fail    *failures
	crawls  atomic.Int64 // completed full crawls
	// onCall, when set, receives each call's trace ID and duration.
	onCall func(traceID string, d time.Duration)
}

type reader struct {
	r      *rng.RNG
	zipf   *rng.Zipf
	cursor apiv1.Cursor
	total  int
	seen   map[digg.StoryID]bool
	// cursors keeps a sample of the cursors the server handed out.
	cursors []apiv1.Cursor
}

// crawlPage is the /v1/stories page size crawls use.
const crawlPage = 100

// rankSeed fixes which story holds each Zipf rank.
const rankSeed = 0x5eed2006

// newReadMix scrambles Zipf ranks over the server's stories with a fixed
// permutation, as YCSB scrambles its Zipf keys: the hot set is a fixed,
// typical mix of stories. Ranking by votes instead put the stories with
// the longest vote lists on top and doubled the SDK's time per read
// (about 1 ms against 0.55 ms, next to some 0.05 ms in the server's
// handler), so the load process, not diggd, set the figures. The seed
// drives the draws.
func newReadMix(ctx context.Context, c *httpapi.Client, seed uint64, workers int, fail *failures) (*readMix, error) {
	var ids []digg.StoryID
	for page, err := range c.Stories(ctx, apiv1.MaxPageSize) {
		if err != nil {
			return nil, err
		}
		for _, s := range page.Stories {
			ids = append(ids, s.ID)
		}
	}
	m := &readMix{c: c, fail: fail}
	for _, i := range rng.New(rankSeed).Perm(len(ids)) {
		m.perm = append(m.perm, ids[i])
	}
	r := rng.New(seed)
	for range workers {
		wr := r.Split()
		m.workers = append(m.workers, &reader{r: wr, zipf: rng.NewZipf(wr, len(ids), zipfS)})
	}
	return m, nil
}

// warm reads every story's detail once. The server encodes a story's
// detail on first read and caches it until the story changes; without
// this pass, which stories the seed happens to touch first decides how
// much of the measured phase pays for encodes a long-running server
// has long since cached.
func (m *readMix) warm(ctx context.Context) error {
	for _, id := range m.perm {
		if _, err := m.c.Story(ctx, id); err != nil {
			return fmt.Errorf("warming story %d: %w", id, err)
		}
	}
	return nil
}

// do runs one read on worker w, records its latency from due, and
// reports whether it succeeded.
func (m *readMix) do(ctx context.Context, w int, due time.Time) bool {
	rd := m.workers[w]
	m.fail.attempt(1)
	if m.onCall != nil {
		var id string
		ctx = context.WithValue(ctx, traceKey{}, &id)
		defer func(start time.Time) { m.onCall(id, time.Since(start)) }(time.Now())
	}
	var err error
	switch u := rd.r.Float64(); {
	case u < 0.60:
		id := m.perm[rd.zipf.Draw()-1]
		var st httpapi.StoryDetail
		if st, err = m.c.Story(ctx, id); err == nil && st.ID != id {
			err = fmt.Errorf("asked for story %d, got %d", id, st.ID)
		}
	case u < 0.75:
		_, err = m.c.FrontPage(ctx, 30)
	case u < 0.85:
		_, err = m.c.Upcoming(ctx, 30)
	default:
		var done bool
		if done, err = crawlStep(ctx, m.c, rd); done {
			m.crawls.Add(1)
		}
	}
	if err != nil {
		m.fail.fail("read: %v", err)
		return false
	}
	m.lat.add(due)
	return true
}

// crawlStep fetches the next page of a /v1/stories crawl and reports
// whether the crawl is done. A finished crawl must have seen each of
// the first page's total stories exactly once.
func crawlStep(ctx context.Context, c *httpapi.Client, rd *reader) (done bool, err error) {
	first := rd.cursor == ""
	page, err := c.StoriesAt(ctx, rd.cursor, crawlPage)
	if err != nil {
		return false, err
	}
	if first {
		rd.total, rd.seen = page.Total, make(map[digg.StoryID]bool, page.Total)
	}
	for _, s := range page.Stories {
		if rd.seen[s.ID] {
			return false, fmt.Errorf("crawl saw story %d twice", s.ID)
		}
		rd.seen[s.ID] = true
	}
	if page.NextCursor != "" && len(rd.cursors) < 256 {
		rd.cursors = append(rd.cursors, page.NextCursor)
	}
	rd.cursor = page.NextCursor
	if rd.cursor != "" {
		return false, nil
	}
	for id := range digg.StoryID(rd.total) {
		if !rd.seen[id] {
			return false, fmt.Errorf("crawl of %d stories missed story %d", rd.total, id)
		}
	}
	return true, nil
}

// fullCrawl walks /v1/stories once and returns every id it saw.
func fullCrawl(ctx context.Context, c *httpapi.Client) (map[digg.StoryID]bool, error) {
	rd := &reader{}
	for {
		done, err := crawlStep(ctx, c, rd)
		if err != nil || done {
			return rd.seen, err
		}
	}
}

// writeGen is the benchmark's own write generator. It digs only the
// stories it submitted itself (generated corpus stories are compacted
// and answer story_gone), and keeps the accepted-vote count per story
// for the vote-count check.
type writeGen struct {
	c        *httpapi.Client
	ids      []digg.StoryID // stories submitted during setup; votes go here
	users    int
	batch    int
	fail     *failures
	lat      samples       // batch-digg acks, timed from due
	zipfs    []*rng.Zipf   // per worker
	rngs     []*rng.RNG    // per worker
	batches  atomic.Uint64 // digg batches sent, which moves the ranking
	mu       sync.Mutex
	accepted map[digg.StoryID]int
	acked    []digg.StoryID // stories submitted during the run
	title    atomic.Int64
}

func newWriteGen(c *httpapi.Client, ids []digg.StoryID, users, batch int, seed uint64, workers int, fail *failures) *writeGen {
	g := &writeGen{c: c, ids: ids, users: users, batch: batch, fail: fail, accepted: make(map[digg.StoryID]int)}
	r := rng.New(seed)
	for range workers {
		wr := r.Split()
		g.rngs = append(g.rngs, wr)
		g.zipfs = append(g.zipfs, rng.NewZipf(wr, len(ids), zipfS))
	}
	return g
}

// rankShiftEvery is how many digg batches pass before attention moves
// on by one story: Zipf rank 1 is story ids[shift], rank 2 the next,
// and so on. Attention on Digg moves to newer stories; here it also
// keeps any one story far below the user count, so repeat votes stay
// rare and accepted votes/s measures the server, not saturation.
const rankShiftEvery = 10

// diggBatch casts one batch of votes from worker w. already_voted is a
// rejection; any other per-item error is a failure.
func (g *writeGen) diggBatch(ctx context.Context, w int) (accepted int, ok bool) {
	r, z := g.rngs[w], g.zipfs[w]
	shift := int(g.batches.Add(1) / rankShiftEvery)
	req := apiv1.BatchDiggRequest{Diggs: make([]apiv1.BatchDiggItem, g.batch)}
	for i := range req.Diggs {
		story := g.ids[(z.Draw()-1+shift)%len(g.ids)]
		req.Diggs[i] = apiv1.BatchDiggItem{Story: story, Voter: digg.UserID(r.Intn(g.users))}
	}
	g.fail.attempt(len(req.Diggs))
	resp, err := g.c.DiggBatch(ctx, req)
	if err != nil {
		g.fail.fail("digg batch: %v", err)
		return 0, false
	}
	if len(resp.Results) != len(req.Diggs) {
		g.fail.fail("digg batch: %d results for %d votes", len(resp.Results), len(req.Diggs))
		return 0, false
	}
	rejected := 0
	var failed []string
	g.mu.Lock()
	for i, res := range resp.Results {
		switch {
		case res.Error == nil:
			g.accepted[req.Diggs[i].Story]++
			accepted++
		case res.Error.Code == apiv1.CodeAlreadyVoted:
			rejected++
		default:
			failed = append(failed, fmt.Sprintf("digg story %d: %s", req.Diggs[i].Story, res.Error.Code))
		}
	}
	g.mu.Unlock()
	g.fail.reject(rejected)
	for _, f := range failed {
		g.fail.fail("%s", f)
	}
	return accepted, true
}

// submitBatch submits n stories from worker w and remembers them.
func (g *writeGen) submitBatch(ctx context.Context, w, n int) {
	ids, err := submitStories(ctx, g.c, g.rngs[w], g.users, n, &g.title, g.fail)
	if err != nil {
		return
	}
	g.mu.Lock()
	g.acked = append(g.acked, ids...)
	g.mu.Unlock()
}

// submitStories submits n stories in one /v1/stories:batch call and
// returns the ids of those accepted.
func submitStories(ctx context.Context, c *httpapi.Client, r *rng.RNG, users, n int, title *atomic.Int64, fail *failures) ([]digg.StoryID, error) {
	req := apiv1.BatchSubmitRequest{Stories: make([]apiv1.SubmitRequest, n)}
	for i := range req.Stories {
		req.Stories[i] = apiv1.SubmitRequest{
			Submitter: digg.UserID(r.Intn(users)),
			Title:     fmt.Sprintf("bench-%d", title.Add(1)),
			Interest:  r.Float64(),
		}
	}
	fail.attempt(n)
	resp, err := c.SubmitBatch(ctx, req)
	if err != nil {
		fail.fail("submit batch: %v", err)
		return nil, err
	}
	ids := make([]digg.StoryID, 0, n)
	for _, res := range resp.Results {
		if res.Error != nil || res.Story == nil {
			fail.fail("submit: %v", res.Error)
			continue
		}
		ids = append(ids, res.Story.ID)
	}
	return ids, nil
}

// prober measures freshness: one submit, then polls for the story on
// the primary and then on the follower until each serves it. Both
// times run from the submit's due time.
type prober struct {
	primary, follower    *httpapi.Client
	r                    *rng.RNG
	users                int
	fresh, followerFresh samples
	fail                 *failures
	mu                   sync.Mutex
	acked                []digg.StoryID
}

// probeTimeout bounds how long a probe waits for its story.
const probeTimeout = 5 * time.Second

func (p *prober) probe(ctx context.Context, i uint64, due time.Time) {
	p.fail.attempt(1)
	st, err := p.primary.Submit(ctx, httpapi.SubmitRequest{
		Submitter: digg.UserID(p.r.Intn(p.users)),
		Title:     fmt.Sprintf("probe-%d", i),
		Interest:  p.r.Float64(),
	})
	if err != nil {
		p.fail.fail("probe submit: %v", err)
		return
	}
	p.mu.Lock()
	p.acked = append(p.acked, st.ID)
	p.mu.Unlock()
	if err := waitServed(ctx, p.primary, st.ID); err != nil {
		p.fail.fail("probe: primary never served story %d: %v", st.ID, err)
		return
	}
	p.fresh.add(due)
	if err := waitServed(ctx, p.follower, st.ID); err != nil {
		p.fail.fail("probe: follower never served story %d: %v", st.ID, err)
		return
	}
	p.followerFresh.add(due)
}

// waitServed polls GET /v1/stories/{id} until it answers 200.
func waitServed(ctx context.Context, c *httpapi.Client, id digg.StoryID) error {
	deadline := time.Now().Add(probeTimeout)
	for {
		_, err := c.Story(ctx, id)
		var apiErr *apiv1.Error
		switch {
		case err == nil:
			return nil
		case !errors.As(err, &apiErr) || apiErr.Code != apiv1.CodeNotFound:
			return err
		case time.Now().After(deadline):
			return errors.New("timed out")
		}
		time.Sleep(time.Millisecond)
	}
}

// sseTail follows /v1/stream and checks that sequence numbers are
// contiguous, counting lag (dropped) events.
type sseTail struct {
	events  atomic.Int64
	lagged  int64  // lag events received
	dropped uint64 // events those lag events reported lost
	gaps    int64  // seq jumps no lag event explains
	elapsed time.Duration
}

func (t *sseTail) run(ctx context.Context, c *httpapi.Client, d time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	var last uint64
	start := time.Now()
	err := c.Stream(ctx, func(ev live.Event) error {
		if ev.Type == live.EventLag {
			t.lagged++
			t.dropped += ev.Dropped
			last += ev.Dropped
			return nil
		}
		if last != 0 && ev.Seq != last+1 {
			t.gaps++
		}
		last = ev.Seq
		t.events.Add(1)
		return nil
	})
	t.elapsed = time.Since(start)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
