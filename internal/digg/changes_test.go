package digg

import (
	"reflect"
	"slices"
	"testing"
)

func TestChangeLogWindow(t *testing.T) {
	var l ChangeLog
	for g := uint64(1); g <= changeLogMax+10; g++ {
		l.Record(g, StoryID(g%7))
	}
	// The oldest half was dropped when the log filled: queries older
	// than the retained window report a gap and append nothing.
	if ids, ok := l.Since(0, nil); ok || len(ids) != 0 {
		t.Fatalf("Since(0) = %d ids, %v; want a gap", len(ids), ok)
	}
	base := uint64(changeLogMax / 2)
	if _, ok := l.Since(base-1, nil); ok {
		t.Fatalf("Since(%d) reached past the retained window", base-1)
	}
	ids, ok := l.Since(base, []StoryID{99})
	if !ok || len(ids) != 1+changeLogMax/2+10 || ids[0] != 99 {
		t.Fatalf("Since(%d) = %d ids, %v", base, len(ids), ok)
	}
	ids, ok = l.Since(changeLogMax+8, nil)
	if !ok || !reflect.DeepEqual(ids, []StoryID{(changeLogMax + 9) % 7, (changeLogMax + 10) % 7}) {
		t.Fatalf("Since(newest-2) = %v, %v", ids, ok)
	}
	l.Reset(changeLogMax + 20)
	if _, ok := l.Since(changeLogMax+19, nil); ok {
		t.Fatal("Since before a reset must report a gap")
	}
	if ids, ok := l.Since(changeLogMax+20, nil); !ok || len(ids) != 0 {
		t.Fatalf("Since(reset gen) = %v, %v", ids, ok)
	}
}

// TestPlatformChangedSince pins which commands the platform's change
// log reports: every version bump (submit, install, accepted vote),
// nothing for rejected votes, comments or compaction, and a gap after
// a restore or a trim.
func TestPlatformChangedSince(t *testing.T) {
	p := NewPlatform(testGraph(t), &ClassicPromotion{VoteThreshold: 3, Window: Day})
	a, _ := p.Submit(0, "a", 0.5, 10)
	b, _ := p.Submit(1, "b", 0.5, 11)
	mark := p.Generation()
	if _, err := p.Digg(a.ID, 2, 12); err != nil {
		t.Fatal(err)
	}
	_, _ = p.Digg(a.ID, 2, 13) // rejected duplicate
	if _, err := p.CommentOn(b.ID, 3, 14, "hi"); err != nil {
		t.Fatal(err)
	}
	if err := p.CompactStory(b.ID); err != nil {
		t.Fatal(err)
	}
	c := &Story{ID: 2, Title: "c", Submitter: 1, SubmittedAt: 20, Votes: []Vote{{Voter: 1, At: 20}}}
	if err := p.InstallStory(c); err != nil {
		t.Fatal(err)
	}
	ids, ok := p.ChangedSince(mark, nil)
	if !ok || !reflect.DeepEqual(ids, []StoryID{a.ID, c.ID}) {
		t.Fatalf("ChangedSince(mark) = %v, %v", ids, ok)
	}
	ids, _ = p.ChangedSince(0, nil)
	slices.Sort(ids)
	if !reflect.DeepEqual(slices.Compact(ids), []StoryID{0, 1, 2}) {
		t.Fatalf("ChangedSince(0) = %v", ids)
	}

	q, err := RestorePlatform(p.Graph, p.Policy, p.AppendState(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.ChangedSince(mark, nil); ok {
		t.Fatal("a restored platform cannot know changes before its checkpoint")
	}
	if ids, ok := q.ChangedSince(q.Generation(), nil); !ok || len(ids) != 0 {
		t.Fatalf("restored ChangedSince(gen) = %v, %v", ids, ok)
	}

	gen := p.Generation()
	p.TrimStories(1)
	if _, ok := p.ChangedSince(gen, nil); ok {
		t.Fatal("a trim must report a gap to older readers")
	}
	d, _ := p.Submit(4, "d", 0.5, 30)
	if ids, ok := p.ChangedSince(gen+1, nil); !ok || !reflect.DeepEqual(ids, []StoryID{d.ID}) {
		t.Fatalf("after trim ChangedSince = %v, %v", ids, ok)
	}
}
