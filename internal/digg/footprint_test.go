package digg

import (
	"runtime"
	"testing"

	"diggsim/internal/graph"
	"diggsim/internal/rng"
)

// TestLiveStoryFootprint bounds what one live story costs to submit on
// a fresh platform (empty set pool): its voter and audience sets at one
// bit per user, 2·⌈n/64⌉ words, plus at most 1 KiB for the story itself
// and the amortized growth of the platform's per-story slices. The
// words are counted as the allocator sizes them: TotalAlloc includes the
// rounding up to a size class (13568 B for the 12504 B of 100k users).
func TestLiveStoryFootprint(t *testing.T) {
	const stories = 200
	for _, n := range []int{10_000, 100_000} {
		g, err := graph.PreferentialAttachment(rng.New(11), n, 3, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		p := NewPlatform(g, NeverPromote{})
		r := rng.New(12)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < stories; i++ {
			if _, err := p.Submit(UserID(r.Intn(n)), "story", 0.5, Minutes(i)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perStory := float64(after.TotalAlloc-before.TotalAlloc) / stories
		words := (n + 63) / 64
		classBytes := 8 * cap(append([]uint64(nil), make([]uint64, words)...))
		bound := float64(2*classBytes + 1024)
		t.Logf("n=%d: %.0f B allocated per live story (bound %.0f)", n, perStory, bound)
		if perStory > bound {
			t.Errorf("n=%d: Submit allocates %.0f B per live story, want <= %.0f", n, perStory, bound)
		}
	}
}
