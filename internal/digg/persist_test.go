package digg

import (
	"reflect"
	"testing"

	"diggsim/internal/graph"
	"diggsim/internal/rng"
)

// buildTestPlatform assembles a platform exercising every piece of
// persisted state: live stories, a compacted story, promotions,
// comments, and rejected commands along the way.
func buildTestPlatform(t testing.TB) *Platform {
	t.Helper()
	g, err := graph.PreferentialAttachment(rng.New(7), 300, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlatform(g, &ClassicPromotion{VoteThreshold: 5, Window: Day})
	r := rng.New(8)
	for i := 0; i < 12; i++ {
		st, err := p.Submit(UserID(r.Intn(300)), "story", 0.5, Minutes(i*10))
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 3+r.Intn(8); v++ {
			_, _ = p.Digg(st.ID, UserID(r.Intn(300)), Minutes(i*10+v+1))
		}
	}
	if _, err := p.CommentOn(3, 5, 40, "nice find"); err != nil {
		t.Fatal(err)
	}
	if err := p.CompactStory(2); err != nil {
		t.Fatal(err)
	}
	return p
}

// assertSamePlatform asserts that two platforms are observably
// identical: generation, stories (deep), versions, promotion order,
// ranking, and live voter/audience behaviour.
func assertSamePlatform(t *testing.T, want, got *Platform) {
	t.Helper()
	if want.Generation() != got.Generation() {
		t.Fatalf("generation %d != %d", got.Generation(), want.Generation())
	}
	if want.NumStories() != got.NumStories() {
		t.Fatalf("stories %d != %d", got.NumStories(), want.NumStories())
	}
	for i := 0; i < want.NumStories(); i++ {
		id := StoryID(i)
		ws, _ := want.Story(id)
		gs, _ := got.Story(id)
		if !reflect.DeepEqual(ws, gs) {
			t.Fatalf("story %d differs:\nwant %+v\ngot  %+v", i, ws, gs)
		}
		if want.StoryVersion(id) != got.StoryVersion(id) {
			t.Fatalf("story %d version %d != %d", i, got.StoryVersion(id), want.StoryVersion(id))
		}
		if want.Audience(id) != got.Audience(id) {
			t.Fatalf("story %d audience %d != %d", i, got.Audience(id), want.Audience(id))
		}
	}
	if !reflect.DeepEqual(want.PromotedIDs(), got.PromotedIDs()) {
		t.Fatalf("promotion order differs: %v vs %v", want.PromotedIDs(), got.PromotedIDs())
	}
	if !reflect.DeepEqual(want.TopUsers(50), got.TopUsers(50)) {
		t.Fatalf("top users differ")
	}
	if !reflect.DeepEqual(want.Ranks(), got.Ranks()) {
		t.Fatalf("ranks differ")
	}
	if !reflect.DeepEqual(want.Comments(3), got.Comments(3)) {
		t.Fatalf("comments differ")
	}
}

func TestPlatformStateRoundTrip(t *testing.T) {
	p := buildTestPlatform(t)
	state := p.AppendState(nil)
	q, err := RestorePlatform(p.Graph, p.Policy, state)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePlatform(t, p, q)

	// The restored platform must keep evolving identically: same digg
	// sequence on both sides yields the same results and state —
	// including promotion decisions and the compacted story's
	// rejection.
	r := rng.New(9)
	for i := 0; i < 60; i++ {
		id := StoryID(r.Intn(p.NumStories()))
		u := UserID(r.Intn(300))
		at := Minutes(200 + i)
		wantRes, wantErr := p.Digg(id, u, at)
		gotRes, gotErr := q.Digg(id, u, at)
		if wantRes != gotRes || (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("digg %d diverged: (%v,%v) vs (%v,%v)", i, wantRes, wantErr, gotRes, gotErr)
		}
	}
	assertSamePlatform(t, p, q)
}

func TestStoryCodecRoundTrip(t *testing.T) {
	s := &Story{
		ID: 7, Title: "a story with ünicode", Submitter: 12,
		SubmittedAt: 99, Promoted: true, PromotedAt: 150, Interest: 0.731,
		Votes: []Vote{{Voter: 12, At: 99}, {Voter: 3, At: 120, InNetwork: true}},
	}
	buf := AppendStory(nil, s)
	got, rest, err := DecodeStory(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d leftover bytes", len(rest))
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip:\nwant %+v\ngot  %+v", s, got)
	}
}

// TestDecodeRejectsJunk feeds truncations and mutations through the
// decoders: every outcome must be an error, never a panic or a bogus
// success that misreads lengths.
func TestDecodeRejectsJunk(t *testing.T) {
	p := buildTestPlatform(t)
	state := p.AppendState(nil)
	for cut := 0; cut < len(state); cut += 7 {
		if _, err := RestorePlatform(p.Graph, p.Policy, state[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	if _, err := RestorePlatform(p.Graph, p.Policy, append(append([]byte(nil), state...), 0xAB)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
	st, _ := p.Story(0)
	buf := AppendStory(nil, st)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeStory(buf[:cut]); err == nil {
			t.Fatalf("story truncation at %d decoded without error", cut)
		}
	}
}
