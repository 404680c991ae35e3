package httpapi

// snapshot.go implements the lock-free read path. The write side
// (handleSubmit/handleDigg, the live service's tick hook, the
// replication follower's apply hook, Handler at startup) calls
// Server.republish, which derives a new immutable ReadView from the
// previous one under the store read lock and publishes it through an
// atomic.Pointer. Hot read handlers load the pointer and write
// pre-serialized JSON bytes straight to the response — no store lock,
// no StorySummary allocation, no encoding/json reflection.
//
// A republish costs in proportion to what changed, not to the number
// of stories:
//
//   - Each story's encoded summary lives in an immutable entry keyed by
//     the story's version. The entries sit in a persistent vector (a
//     radix trie of fixed-width nodes, see storyVec) that successive
//     views share: a rebuild copies only the leaves holding a changed
//     story and the inner nodes above them.
//   - The store reports which stories changed since the previous
//     view's generation (digg.Store.ChangedSince), so the rebuild never
//     scans all stories. When the store's bounded change log no longer
//     reaches back that far, the rebuild treats every story as changed:
//     the same code that runs the first publication.
//   - The front-page and upcoming windows are bounded lists of pointers
//     to the shared entries, and the top-user rendering is carried over
//     while the store's rank map is unchanged.
//
// Story details (vote lists) are encoded lazily on first request and
// cached in the story's entry, so repeated scrapes of an unchanged
// story are served from bytes and a vote drops the cache with the old
// entry.

import (
	"fmt"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diggsim/internal/digg"
)

// Pre-render depths. Requests that reach past them (and past the
// total) fall back to the locked path, which stays correct for
// arbitrary limits.
const (
	maxRenderQueue = 100  // front-page / upcoming entries per snapshot
	maxRenderTop   = 1024 // top-user ids per snapshot
)

// sumEntry is one story's published summary at one version. The
// fields never change once the entry is published, and every view
// shares the entry until the story changes. submittedAt lets the
// upcoming handlers apply the clock-dependent visibility filter at
// serve time, so a static server's queue stays correct as wall time
// advances without republishing; id is the boundary key v1 upcoming
// cursors resume from.
type sumEntry struct {
	ver         uint32
	id          digg.StoryID
	submittedAt int64
	buf         []byte // StorySummary JSON
	// detail caches the story's StoryDetail JSON at ver, filled by the
	// first read that needs it.
	detail atomic.Pointer[[]byte]
}

func newEntry(s *digg.Story, ver uint32) *sumEntry {
	return &sumEntry{
		ver:         ver,
		id:          s.ID,
		submittedAt: int64(s.SubmittedAt),
		buf:         appendSummary(make([]byte, 0, 96+len(s.Title)), s),
	}
}

// storyVec geometry: every node has vecWidth slots.
const (
	vecBits  = 6
	vecWidth = 1 << vecBits
	vecMask  = vecWidth - 1
)

// vecLeaf holds the entries of vecWidth consecutive stories.
type vecLeaf [vecWidth]*sumEntry

// vecInner is an inner trie node. Nodes one level above the leaves
// use leaves; higher nodes use kids.
type vecInner struct {
	kids   [vecWidth]*vecInner
	leaves [vecWidth]*vecLeaf
}

// storyVec is a persistent vector of summary entries indexed by story
// ID. Nodes are never modified once published; with returns a new
// vector that shares every node no update touches.
type storyVec struct {
	root   *vecInner
	height int // inner levels; 1 means root.leaves holds the leaves
	n      int
}

// capacity returns how many entries a trie of the given height holds.
func capacity(height int) int { return 1 << (vecBits * (height + 1)) }

// get returns entry i (0 <= i < n).
func (v *storyVec) get(i int) *sumEntry {
	node := v.root
	for h := v.height; h > 1; h-- {
		node = node.kids[(i>>(vecBits*h))&vecMask]
	}
	return node.leaves[(i>>vecBits)&vecMask][i&vecMask]
}

// vecUpdate sets entry i to e.
type vecUpdate struct {
	i int
	e *sumEntry
}

// with returns a vector of length n (n >= v.n) carrying ups, which
// must be sorted by index and cover every index in [v.n, n). Only the
// nodes on the paths to updated entries are copied.
func (v storyVec) with(n int, ups []vecUpdate) storyVec {
	out := storyVec{root: v.root, height: max(v.height, 1), n: n}
	for capacity(out.height) < n {
		if out.root != nil {
			out.root = &vecInner{kids: [vecWidth]*vecInner{out.root}}
		}
		out.height++
	}
	if len(ups) > 0 {
		out.root = updateInner(out.root, out.height, 0, ups)
	}
	return out
}

// updateInner returns a copy of node (nil: an empty node) covering
// indices from base, with ups applied.
func updateInner(node *vecInner, height, base int, ups []vecUpdate) *vecInner {
	nn := new(vecInner)
	if node != nil {
		*nn = *node
	}
	shift := vecBits * height // each child covers 1<<shift indices
	for len(ups) > 0 {
		slot := (ups[0].i - base) >> shift
		childBase := base + slot<<shift
		j := 1
		for j < len(ups) && ups[j].i < childBase+1<<shift {
			j++
		}
		if height == 1 {
			leaf := new(vecLeaf)
			if old := nn.leaves[slot]; old != nil {
				*leaf = *old
			}
			for _, u := range ups[:j] {
				leaf[u.i-childBase] = u.e
			}
			nn.leaves[slot] = leaf
		} else {
			nn.kids[slot] = updateInner(nn.kids[slot], height-1, childBase, ups[:j])
		}
		ups = ups[j:]
	}
	return nn
}

// ReadView is one immutable published snapshot of everything the hot
// read endpoints serve. Nothing reachable from a view is mutated after
// publication (apart from the entries' lazily filled detail caches),
// so any number of handlers may serve from a view while newer views
// are published behind them.
type ReadView struct {
	// Gen is the store generation this view was built at (against a
	// sharded store, the composite generation: the shard-vector sum).
	Gen uint64
	// ShardGens is the per-shard generation vector at build time (nil
	// for an unsharded store). Cursors minted from this view embed it.
	ShardGens []uint64

	stories storyVec // per-story summary entries, indexed by StoryID

	front   []*sumEntry // promoted stories, newest promotion first
	fpTotal int         // promoted stories on the whole platform

	upcoming []*sumEntry // unpromoted stories, newest first
	upTotal  int         // unpromoted stories on the whole platform

	topBuf   []byte // "[id,id,...]" ranked users, best first
	topEnds  []int  // topEnds[i] = offset just past user i (no ']')
	topTotal int    // users with promoted submissions

	// ranks is the platform's promoted-submission ranking map, shared
	// immutably (digg replaces it on invalidation, never mutates it).
	ranks map[digg.UserID]int

	etagStr string   // strong ETag derived from Gen, e.g. `"g42"`
	etag    []string // ready-to-assign header value {etagStr}
}

// snapshotStore owns the published view and the rebuild scratch.
type snapshotStore struct {
	mu   sync.Mutex // serializes rebuilds
	view atomic.Pointer[ReadView]
	// changed and ups are rebuild scratch, reused under mu.
	changed []digg.StoryID
	ups     []vecUpdate
	// onPublish, when non-nil (tests), observes every published view
	// while the rebuild lock is held.
	onPublish func(*ReadView)
}

func newSnapshotStore() *snapshotStore { return &snapshotStore{} }

// republish rebuilds and atomically publishes the read view if the
// platform generation moved since the last publication. It is called
// by every write path (HTTP submit/digg handlers, the live service's
// after-step hook, the follower's after-apply hook) and by Handler
// before serving; readers never call it, so they never block behind a
// rebuild.
func (s *Server) republish() {
	st := s.snap
	st.mu.Lock()
	defer st.mu.Unlock()
	s.mu.RLock()
	gen := s.store.Generation()
	prev := st.view.Load()
	if prev != nil && prev.Gen == gen {
		s.mu.RUnlock()
		return
	}
	buildStart := time.Now()
	view := st.build(s.store, gen, prev)
	histSnapshotRebuild.Observe(time.Since(buildStart))
	s.mu.RUnlock()
	st.view.Store(view)
	gaugeViewGen.Set(view.Gen)
	if st.onPublish != nil {
		st.onPublish(view)
	}
}

// build derives the view at gen from prev (nil before the first
// publication). The caller holds the store mutex (so the scratch is
// private) and the store read lock (so the store is quiescent).
func (st *snapshotStore) build(p digg.Store, gen uint64, prev *ReadView) *ReadView {
	stories := p.Stories()
	base, ups := st.updates(p, prev, stories)
	if len(ups) > 0 {
		ctrStoriesEncoded.Add(uint64(len(ups)))
	}
	v := &ReadView{Gen: gen, stories: base.with(len(stories), ups)}
	clear(ups) // drop the scratch's entry references
	if sh, ok := p.(digg.Sharded); ok {
		v.ShardGens = sh.ShardGenerations(nil)
	}

	// Front page: promoted stories, newest promotion first.
	v.fpTotal = p.PromotedCount()
	v.front = v.entries(p.FrontPage(maxRenderQueue))

	// Upcoming queue: unpromoted stories, newest first, including
	// future-dated submissions — the handlers filter by the clock at
	// serve time.
	v.upTotal = len(stories) - v.fpTotal
	v.upcoming = v.entries(p.Upcoming(digg.Minutes(1<<62), maxRenderQueue))

	// Reputation: ranked ids pre-rendered, rank map shared for
	// lock-free user lookups. The store replaces its rank map whenever
	// the ranking changes, so an identical map means an identical
	// ranking and the previous rendering still holds.
	v.ranks = p.Ranks()
	if prev != nil && reflect.ValueOf(prev.ranks).UnsafePointer() == reflect.ValueOf(v.ranks).UnsafePointer() {
		v.topBuf, v.topEnds, v.topTotal = prev.topBuf, prev.topEnds, prev.topTotal
	} else {
		v.topTotal = len(v.ranks)
		top := p.TopUsers(maxRenderTop)
		v.topBuf = append(v.topBuf, '[')
		v.topEnds = make([]int, len(top))
		for i, u := range top {
			if i > 0 {
				v.topBuf = append(v.topBuf, ',')
			}
			v.topBuf = strconv.AppendInt(v.topBuf, int64(u), 10)
			v.topEnds[i] = len(v.topBuf)
		}
		v.topBuf = append(v.topBuf, ']')
	}

	v.etagStr = `"g` + strconv.FormatUint(gen, 10) + `"`
	v.etag = []string{v.etagStr}
	return v
}

// updates returns the vector to derive the new view's entries from
// and the entries to replace in it, sorted by index: re-encoded
// summaries of the stories the store reports changed since prev, plus
// every story prev does not cover yet. Without a usable change log
// (first publication, or a gap) base is empty and every story is
// encoded.
func (st *snapshotStore) updates(p digg.Store, prev *ReadView, stories []*digg.Story) (base storyVec, ups []vecUpdate) {
	ups = st.ups[:0]
	if prev != nil && len(stories) >= prev.stories.n {
		ids, ok := p.ChangedSince(prev.Gen, st.changed[:0])
		st.changed = ids
		if ok {
			base = prev.stories
			slices.Sort(ids)
			for _, id := range slices.Compact(ids) {
				if int(id) >= base.n {
					break // new stories are encoded below; later ones are not served yet
				}
				if ver := p.StoryVersion(id); ver != base.get(int(id)).ver {
					ups = append(ups, vecUpdate{int(id), newEntry(stories[id], ver)})
				}
			}
		}
	}
	for i := base.n; i < len(stories); i++ {
		ups = append(ups, vecUpdate{i, newEntry(stories[i], p.StoryVersion(stories[i].ID))})
	}
	// Keep the scratch for the next rebuild, unless a full build grew
	// it to the corpus size: that would pin a corpus-sized array.
	if cap(ups) <= 4096 {
		st.ups = ups
	}
	return base, ups
}

// entries maps stories to their entries in the view.
func (v *ReadView) entries(stories []*digg.Story) []*sumEntry {
	out := make([]*sumEntry, len(stories))
	for i, s := range stories {
		out[i] = v.stories.get(int(s.ID))
	}
	return out
}

// appendEntries appends the entries' summaries as a comma-separated
// JSON array body (no brackets).
func appendEntries(b []byte, entries []*sumEntry) []byte {
	for i, e := range entries {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, e.buf...)
	}
	return b
}

// Shared header values and byte fragments, assigned directly into the
// header map so hot handlers allocate nothing per request.
var (
	headerJSON = []string{"application/json"}
	// headerRevalidate lets clients cache queue pages but revalidate
	// with If-None-Match on every reuse: a scraper's repeated crawls
	// of an unchanged page cost a 304, not a re-download.
	headerRevalidate = []string{"no-cache"}
	bracketClose     = []byte{']'}
	emptyArray       = []byte("[]")
)

// encBufPool recycles scratch buffers for handlers that assemble a
// response from snapshot fragments plus per-request numbers (story
// pages, user profiles).
var encBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// queryIntRaw parses an integer query parameter straight from the raw
// query string, allocating nothing on the happy path (url.Values would
// build a map per request). Percent-encoded values take the rare slow
// path through url.QueryUnescape so legal encodings keep parsing.
func queryIntRaw(rawQuery, key string, def int) (int, error) {
	for len(rawQuery) > 0 {
		var seg string
		if i := strings.IndexByte(rawQuery, '&'); i >= 0 {
			seg, rawQuery = rawQuery[:i], rawQuery[i+1:]
		} else {
			seg, rawQuery = rawQuery, ""
		}
		eq := strings.IndexByte(seg, '=')
		if eq < 0 || seg[:eq] != key {
			continue
		}
		val := seg[eq+1:]
		if strings.ContainsAny(val, "%+") {
			if dec, err := url.QueryUnescape(val); err == nil {
				val = dec
			}
		}
		v, err := strconv.Atoi(val)
		if err != nil {
			return 0, fmt.Errorf("invalid %s: %q", key, val)
		}
		return v, nil
	}
	return def, nil
}

// etagMatches reports whether the If-None-Match header value names
// etag (a quoted strong validator). It scans the comma-separated list
// without allocating; weak prefixes compare equal, matching
// conditional-GET semantics for 304 responses.
func etagMatches(header, etag string) bool {
	if header == "" || etag == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for len(header) > 0 {
		header = strings.TrimLeft(header, " \t,")
		if strings.HasPrefix(header, "W/") {
			header = header[2:]
		}
		if len(header) == 0 {
			return false
		}
		if strings.HasPrefix(header, etag) {
			rest := header[len(etag):]
			if rest == "" || rest[0] == ',' || rest[0] == ' ' || rest[0] == '\t' {
				return true
			}
		}
		i := strings.IndexByte(header, ',')
		if i < 0 {
			return false
		}
		header = header[i+1:]
	}
	return false
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaping
// quotes, backslashes and control characters.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '"' && c != '\\' && c >= 0x20 {
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"':
			b = append(b, '\\', '"')
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	return append(append(b, s[start:]...), '"')
}

// appendSummary appends a story's StorySummary JSON — the manual
// counterpart of encoding/json over the types.go struct tags.
func appendSummary(b []byte, s *digg.Story) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(s.ID), 10)
	b = append(b, `,"title":`...)
	b = appendJSONString(b, s.Title)
	b = append(b, `,"submitter":`...)
	b = strconv.AppendInt(b, int64(s.Submitter), 10)
	b = append(b, `,"submitted_at":`...)
	b = strconv.AppendInt(b, int64(s.SubmittedAt), 10)
	if s.Promoted {
		b = append(b, `,"promoted":true`...)
		if s.PromotedAt != 0 { // mirrors the omitempty struct tag
			b = append(b, `,"promoted_at":`...)
			b = strconv.AppendInt(b, int64(s.PromotedAt), 10)
		}
	} else {
		b = append(b, `,"promoted":false`...)
	}
	b = append(b, `,"votes":`...)
	b = strconv.AppendInt(b, int64(len(s.Votes)), 10)
	return append(b, '}')
}

// appendDetail appends a story's StoryDetail JSON: the summary fields
// plus the chronological vote list.
func appendDetail(b []byte, s *digg.Story) []byte {
	b = appendSummary(b, s)
	b = b[:len(b)-1] // reopen the summary object
	b = append(b, `,"vote_list":[`...)
	for i, v := range s.Votes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"voter":`...)
		b = strconv.AppendInt(b, int64(v.Voter), 10)
		b = append(b, `,"at":`...)
		b = strconv.AppendInt(b, int64(v.At), 10)
		b = append(b, '}')
	}
	return append(b, ']', '}')
}

// appendUserInfo appends a UserInfo JSON object.
func appendUserInfo(b []byte, id digg.UserID, fans, friends, rank int) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, `,"fans":`...)
	b = strconv.AppendInt(b, int64(fans), 10)
	b = append(b, `,"friends":`...)
	b = strconv.AppendInt(b, int64(friends), 10)
	b = append(b, `,"rank":`...)
	b = strconv.AppendInt(b, int64(rank), 10)
	return append(b, '}')
}
