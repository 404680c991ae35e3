package httpapi

import (
	"fmt"
	"runtime"
	"testing"

	"diggsim/internal/digg"
	"diggsim/internal/graph"
)

// scaleVoters is the voter pool of the republish scale harness: each
// live story takes this many votes before the harness submits the
// next one.
const scaleVoters = 4096

// scaleHarness is a server over a platform of n compacted stories
// plus one live story, published once. vote applies one digg to the
// live story and republishes: the write path's cost per vote.
type scaleHarness struct {
	srv   *Server
	p     *digg.Platform
	live  digg.StoryID
	voter digg.UserID
}

func newScaleHarness(tb testing.TB, n int) *scaleHarness {
	tb.Helper()
	g, err := graph.FromEdgeList(scaleVoters+1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	p := digg.NewPlatform(g, digg.NeverPromote{})
	// One backing array and one shared vote list keep a million-story
	// setup to a few allocations; installed stories are compacted, so
	// nothing appends to the shared list.
	stories := make([]digg.Story, n)
	votes := []digg.Vote{{Voter: 0}}
	for i := range stories {
		st := &stories[i]
		st.ID, st.SubmittedAt, st.Votes = digg.StoryID(i), digg.Minutes(i), votes
		if err := p.InstallStory(st); err != nil {
			tb.Fatal(err)
		}
	}
	h := &scaleHarness{srv: NewServer(p, digg.Minutes(n), nil), p: p}
	h.srv.republish()
	h.submit(tb)
	return h
}

// submit starts a fresh live story and publishes it.
func (h *scaleHarness) submit(tb testing.TB) {
	st, err := h.p.Submit(0, "live", 0.5, digg.Minutes(h.p.NumStories()))
	if err != nil {
		tb.Fatal(err)
	}
	h.live, h.voter = st.ID, 1
	h.srv.republish()
}

// vote is one digg plus the republish that makes it visible.
func (h *scaleHarness) vote(tb testing.TB) {
	if int(h.voter) > scaleVoters {
		h.submit(tb)
	}
	h.srv.mu.Lock()
	_, err := h.p.Digg(h.live, h.voter, digg.Minutes(h.p.NumStories()))
	h.srv.mu.Unlock()
	if err != nil {
		tb.Fatal(err)
	}
	h.voter++
	h.srv.republish()
}

// BenchmarkRepublishScale measures one vote plus its republish at
// growing story counts. The republish copies only the vector path of
// the changed story and rebuilds bounded windows, so time and bytes
// per op stay nearly flat from 1k to 1M stories.
func BenchmarkRepublishScale(b *testing.B) {
	for _, n := range []int{1_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("stories=%d", n), func(b *testing.B) {
			h := newScaleHarness(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if int(h.voter) > scaleVoters {
					b.StopTimer()
					h.submit(b)
					b.StartTimer()
				}
				h.vote(b)
			}
		})
	}
}

// republishBytesPerVote returns the heap bytes one vote plus its
// republish allocates on a platform of n stories, averaged over
// enough votes to hide one-off growth.
func republishBytesPerVote(t *testing.T, n int) float64 {
	h := newScaleHarness(t, n)
	const votes = 500
	for i := 0; i < 20; i++ {
		h.vote(t) // warm scratch buffers
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < votes; i++ {
		h.vote(t)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / votes
}

// TestRepublishAllocsProportional is the write-cost guard: what a
// one-vote republish allocates must not grow with the number of
// stories. At 100x the stories it may cost at most twice as much
// (one more trie level plus noise); a rebuild that copies per-story
// state fails by orders of magnitude.
func TestRepublishAllocsProportional(t *testing.T) {
	small := republishBytesPerVote(t, 1_000)
	large := republishBytesPerVote(t, 100_000)
	t.Logf("bytes per vote+republish: %.0f at 1k stories, %.0f at 100k", small, large)
	if large > 2*small {
		t.Errorf("republish allocates %.0f B per vote at 100k stories, more than 2x the %.0f B at 1k", large, small)
	}
}
