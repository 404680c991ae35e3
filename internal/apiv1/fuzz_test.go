package apiv1

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzCursorDecode feeds arbitrary tokens through Cursor.Decode, the
// one wire decoder whose input clients control. The invariants: Decode
// never panics, and a token it accepts re-encodes to a cursor that
// decodes to an equal payload (non-canonical varints may re-encode to
// different bytes, but never to a different position).
func FuzzCursorDecode(f *testing.F) {
	kinds := []CursorKind{CursorStories, CursorFrontPage, CursorUpcoming, CursorTopUsers, CursorLinks}
	// The cursors pinned by the golden fixtures, under every kind.
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range fixtures {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var page struct {
			NextCursor Cursor `json:"next_cursor"`
		}
		if json.Unmarshal(data, &page) != nil || page.NextCursor == "" {
			continue
		}
		for _, k := range kinds {
			f.Add(string(page.NextCursor), byte(k))
		}
	}
	for _, k := range kinds {
		f.Add(string(CursorPayload{Kind: k}.Encode()), byte(k))
		f.Add(string(CursorPayload{Kind: k, Gen: 1 << 40, Pos: -3, Ver: 9,
			ShardGens: []uint64{0, 1 << 63, 5}}.Encode()), byte(k))
	}
	f.Add("", byte(CursorStories))
	f.Add("!!!!", byte(CursorStories))

	f.Fuzz(func(t *testing.T, token string, kind byte) {
		p, err := Cursor(token).Decode(CursorKind(kind))
		if err != nil {
			return
		}
		if p.Kind != CursorKind(kind) {
			t.Fatalf("decoded kind %q under %q", p.Kind, kind)
		}
		again, err := p.Encode().Decode(p.Kind)
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", p, err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("round trip changed the payload: %+v, then %+v", p, again)
		}
	})
}
