package digg

import (
	"bytes"
	"testing"
)

// FuzzRestorePlatform feeds arbitrary bytes through RestorePlatform,
// which decodes checkpoints read from disk and shipped by a primary and
// rebuilds every live story's voter and audience sets. No input may
// panic, and a successful restore must be canonical after one pass:
// re-encoding it and restoring that gives identical bytes and equal
// audiences. The raw input itself need not round-trip, since
// binary.Uvarint accepts non-minimal encodings.
func FuzzRestorePlatform(f *testing.F) {
	p := buildTestPlatform(f)
	if p.PromotedCount() == 0 {
		f.Fatal("seed platform has no promoted story")
	}
	state := p.AppendState(nil)
	f.Add(state)
	f.Add(state[:len(state)/2])
	f.Add(NewPlatform(p.Graph, p.Policy).AppendState(nil))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := RestorePlatform(p.Graph, p.Policy, data)
		if err != nil {
			return
		}
		once := q.AppendState(nil)
		r, err := RestorePlatform(p.Graph, p.Policy, once)
		if err != nil {
			t.Fatalf("re-encoded state does not restore: %v", err)
		}
		if twice := r.AppendState(nil); !bytes.Equal(once, twice) {
			t.Fatalf("state not canonical after one pass:\n%x\n%x", once, twice)
		}
		for _, s := range q.Stories() {
			if a, b := q.Audience(s.ID), r.Audience(s.ID); a != b {
				t.Fatalf("story %d audience %d after one pass, %d after two", s.ID, a, b)
			}
		}
	})
}
