package httpapi

// client_decode_test.go pins the SDK's decode path: pooled read
// buffers and pre-sized result lists must give exactly what
// json.Unmarshal gives, must never leak pooled bytes into results or
// the ETag cache, and must keep a read's allocation proportional to
// its decoded result.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"diggsim/internal/apiv1"
	"diggsim/internal/digg"
)

// roundTripFunc serves requests from a function, so a client can be
// driven without a server.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	return f(r)
}

// cannedResponse is a response with a known Content-Length, as diggd
// sends for every JSON body.
func cannedResponse(status int, header http.Header, body []byte) *http.Response {
	if header == nil {
		header = http.Header{}
	}
	return &http.Response{
		StatusCode:    status,
		Header:        header,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
	}
}

// cannedClient is an SDK client whose every request is answered by f.
func cannedClient(f roundTripFunc) *Client {
	return NewClientWith("http://canned", ClientOptions{
		HTTPClient:            &http.Client{Transport: f},
		DisableTransientRetry: true,
	})
}

// staticClient answers every request with 200 and body.
func staticClient(body []byte) *Client {
	return cannedClient(func(*http.Request) (*http.Response, error) {
		return cannedResponse(http.StatusOK, nil, body), nil
	})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// trickyTitle holds the bytes a brace counter could trip on.
const trickyTitle = "{a} }{ \"quoted {\" \\ \u00e9 \u2603 {{{"

// decodeCases returns, per pre-sized response type, bodies covering
// escaped braces and quotes, \u escapes, empty, null and absent lists,
// and batch results that carry error objects. Each body is fetched
// through the SDK call that decodes that type.
func decodeCases(t *testing.T) map[string][]string {
	votes := []apiv1.VoteRecord{{Voter: 7, At: 100}, {Voter: 9, At: 101}, {Voter: 11, At: 250}}
	summary := apiv1.StorySummary{ID: 4, Title: trickyTitle, Submitter: 7, SubmittedAt: 100, Promoted: true, PromotedAt: 300, Votes: 3}
	errObj := &apiv1.Error{Code: apiv1.CodeAlreadyVoted, Message: "voter {9} already dugg \"it\""}
	return map[string][]string{
		"story": {
			string(mustJSON(t, apiv1.StoryDetail{StorySummary: summary, VoteList: votes})),
			`{"id":1,"title":"\u007b\u007b\"}","vote_list":[{"voter":1,"at":2},{"voter":3,"at":4}]}`,
			`{"id":1,"title":"{{{{","vote_list":[]}`,
			`{"id":1,"title":"{{{{","vote_list":null}`,
			`{"id":1,"title":"{{{{"}`,
			`{"id":1}`,
			` { "id" : 1 , "vote_list" : [ { "voter" : 5 , "at" : 6 } ] } `,
		},
		"stories": {
			string(mustJSON(t, apiv1.StoriesPage{Stories: []apiv1.StorySummary{summary, {ID: 5, Title: "\u007b"}}, Total: 2, NextCursor: "cwfIAQMARzJe9w"})),
			`{"stories":[],"total":0}`,
			`{"stories":null,"total":0}`,
			`{"total":3,"next_cursor":"{{"}`,
		},
		"diggs": {
			string(mustJSON(t, apiv1.BatchDiggResponse{Results: []apiv1.BatchDiggResult{
				{InNetwork: true, Votes: 3}, {Error: errObj}, {Promoted: true, Votes: 43},
			}})),
			`{"results":[{"error":{"code":"not_found","message":"{}"}},{"error":{"code":"story_gone","message":"\u007b"}}]}`,
			`{"results":[]}`,
			`{"results":null}`,
			`{}`,
		},
		"submits": {
			string(mustJSON(t, apiv1.BatchSubmitResponse{Results: []apiv1.BatchSubmitResult{
				{Story: &summary}, {Error: errObj}, {Story: &apiv1.StorySummary{ID: 6, Title: "}"}},
			}})),
			`{"results":[]}`,
			`{"results":null}`,
			`{"results":[{},{}]}`,
			`{}`,
		},
	}
}

// decodeVia fetches body through the SDK call for kind and returns
// the result with a plain json.Unmarshal of the same bytes.
func decodeVia(t *testing.T, kind string, body []byte) (got, want any) {
	t.Helper()
	c := staticClient(body)
	ctx := context.Background()
	var err error
	switch kind {
	case "story":
		var w apiv1.StoryDetail
		if err = json.Unmarshal(body, &w); err == nil {
			got, err = c.Story(ctx, 1)
		}
		want = w
	case "stories":
		var w apiv1.StoriesPage
		if err = json.Unmarshal(body, &w); err == nil {
			got, err = c.StoriesAt(ctx, "", 10)
		}
		want = w
	case "diggs":
		var w apiv1.BatchDiggResponse
		if err = json.Unmarshal(body, &w); err == nil {
			got, err = c.DiggBatch(ctx, apiv1.BatchDiggRequest{})
		}
		want = w
	case "submits":
		var w apiv1.BatchSubmitResponse
		if err = json.Unmarshal(body, &w); err == nil {
			got, err = c.SubmitBatch(ctx, apiv1.BatchSubmitRequest{})
		}
		want = w
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	if err != nil {
		t.Fatalf("%s %s: %v", kind, body, err)
	}
	return got, want
}

// TestClientDecodeMatchesUnmarshal is the differential test for the
// pooled, pre-sized decode path: every SDK result equals json.Unmarshal
// of the same bytes, nil-versus-empty lists included; pooled bytes
// never leak into results or the ETag cache; and a hostile body cannot
// make the client reserve more than it sent.
func TestClientDecodeMatchesUnmarshal(t *testing.T) {
	t.Run("differential", testDecodeDifferential)
	t.Run("no-aliasing", testDecodeNoAliasing)
	t.Run("hostile-body", testDecodeHostileBody)
	t.Run("element-lengths", testDecodeElementLengths)
	t.Run("concurrent", testDecodeConcurrent)
}

// testDecodeConcurrent reads story details of different sizes from
// several goroutines through one client, so pooled buffers pass
// between calls in flight: every result must still equal its body's
// plain decoding.
func testDecodeConcurrent(t *testing.T) {
	const readers, reads = 4, 50
	bodies := map[string][]byte{}
	want := map[string]apiv1.StoryDetail{}
	for id := digg.StoryID(1); id <= readers; id++ {
		path := fmt.Sprintf("/v1/stories/%d", id)
		bodies[path] = storyBody(t, id, 300*int(id))
		var d apiv1.StoryDetail
		if err := json.Unmarshal(bodies[path], &d); err != nil {
			t.Fatal(err)
		}
		want[path] = d
	}
	c := cannedClient(func(r *http.Request) (*http.Response, error) {
		return cannedResponse(http.StatusOK, nil, bodies[r.URL.Path]), nil
	})
	var wg sync.WaitGroup
	for id := digg.StoryID(1); id <= readers; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got []apiv1.StoryDetail
			for range reads {
				d, err := c.Story(context.Background(), id)
				if err != nil {
					t.Error(err)
					return
				}
				got = append(got, d)
			}
			for _, d := range got {
				if !reflect.DeepEqual(d, want[fmt.Sprintf("/v1/stories/%d", id)]) {
					t.Errorf("story %d: a concurrent read changed a result", id)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// testDecodeElementLengths pins the clamp's per-element lengths to the
// shortest elements encoding/json renders.
func testDecodeElementLengths(t *testing.T) {
	for _, c := range []struct {
		got  int
		elem any
	}{
		{minVoteRecordLen, apiv1.VoteRecord{}},
		{minStorySummaryLen, apiv1.StorySummary{}},
		{minDiggResultLen, apiv1.BatchDiggResult{}},
		{minSubmitResultLen, apiv1.BatchSubmitResult{Error: &apiv1.Error{}}},
	} {
		if want := len(mustJSON(t, c.elem)); c.got != want {
			t.Errorf("%T: shortest encoding is %d bytes, clamp uses %d", c.elem, want, c.got)
		}
	}
}

func testDecodeDifferential(t *testing.T) {
	for kind, bodies := range decodeCases(t) {
		for i, body := range bodies {
			got, want := decodeVia(t, kind, []byte(body))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s case %d %s:\n got  %#v\n want %#v", kind, i, body, got, want)
			}
		}
	}
}

// testDecodeHostileBody sends one element whose text is 1 MB of '{':
// the capacity the client reserves, in bytes, must stay below the
// body's length, however many braces the body holds.
func testDecodeHostileBody(t *testing.T) {
	braces := strings.Repeat("{", 1<<20)
	summary := apiv1.StorySummary{ID: 1, Title: braces}
	bodies := map[string][]byte{
		"story": mustJSON(t, apiv1.StoryDetail{StorySummary: summary,
			VoteList: []apiv1.VoteRecord{{Voter: 1, At: 2}}}),
		"stories": mustJSON(t, apiv1.StoriesPage{Stories: []apiv1.StorySummary{summary}, Total: 1}),
		"diggs": mustJSON(t, apiv1.BatchDiggResponse{Results: []apiv1.BatchDiggResult{
			{Error: &apiv1.Error{Code: apiv1.CodeNotFound, Message: braces}}}}),
		"submits": mustJSON(t, apiv1.BatchSubmitResponse{Results: []apiv1.BatchSubmitResult{{Story: &summary}}}),
	}
	for kind, body := range bodies {
		got, want := decodeVia(t, kind, body)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: hostile body decoded differently from json.Unmarshal", kind)
		}
		var list reflect.Value
		switch v := got.(type) {
		case apiv1.StoryDetail:
			list = reflect.ValueOf(v.VoteList)
		case apiv1.StoriesPage:
			list = reflect.ValueOf(v.Stories)
		case apiv1.BatchDiggResponse:
			list = reflect.ValueOf(v.Results)
		case apiv1.BatchSubmitResponse:
			list = reflect.ValueOf(v.Results)
		}
		reserved := list.Cap() * int(list.Type().Elem().Size())
		if reserved >= len(body) {
			t.Errorf("%s: reserved %d B for a %d B body", kind, reserved, len(body))
		}
	}
}

// storyBody is a story detail of n votes as diggd encodes it.
func storyBody(t testing.TB, id digg.StoryID, n int) []byte {
	d := apiv1.StoryDetail{StorySummary: apiv1.StorySummary{ID: id, Title: "story " + strconv.Itoa(int(id)), Votes: n}}
	d.VoteList = make([]apiv1.VoteRecord, n)
	for i := range d.VoteList {
		d.VoteList[i] = apiv1.VoteRecord{Voter: digg.UserID(10_000 + i), At: int64(1_000_000 + i)}
	}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// testDecodeNoAliasing fetches the front page (its body enters the
// ETag cache), reads large story details so the pooled read buffer is
// reused and overwritten, then revalidates: the 304 must decode the
// original page, and earlier results must be untouched by later reads.
func testDecodeNoAliasing(t *testing.T) {
	page := apiv1.StoriesPage{Stories: []apiv1.StorySummary{
		{ID: 3, Title: "front page story", Promoted: true, Votes: 40},
		{ID: 2, Title: "another {one}", Promoted: true, Votes: 31},
	}, Total: 2}
	pageBody := mustJSON(t, page)
	stories := map[string][]byte{}
	for id := digg.StoryID(1); id <= 4; id++ {
		stories[fmt.Sprintf("/v1/stories/%d", id)] = storyBody(t, id, 2000*int(id))
	}
	revalidated := 0
	c := cannedClient(func(r *http.Request) (*http.Response, error) {
		if r.URL.Path == "/v1/frontpage" {
			if r.Header.Get("If-None-Match") == `"g1"` {
				revalidated++
				return cannedResponse(http.StatusNotModified, nil, nil), nil
			}
			return cannedResponse(http.StatusOK, http.Header{"Etag": {`"g1"`}}, pageBody), nil
		}
		body, ok := stories[r.URL.Path]
		if !ok {
			return cannedResponse(http.StatusNotFound, nil, []byte(`{"error":{"code":"not_found","message":"no"}}`)), nil
		}
		return cannedResponse(http.StatusOK, nil, body), nil
	})
	ctx := context.Background()
	var details []apiv1.StoryDetail
	readStories := func() {
		for id := digg.StoryID(1); id <= 4; id++ {
			d, err := c.Story(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			details = append(details, d)
		}
	}
	// Grow the pooled buffer first, so the front page is read into a
	// buffer the next story reads overwrite in place.
	readStories()
	if _, err := c.FrontPage(ctx, 2); err != nil {
		t.Fatal(err)
	}
	readStories()
	if _, err := c.Story(ctx, 99); err == nil {
		t.Fatal("missing story decoded without error")
	}
	got, err := c.FrontPage(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if revalidated != 1 {
		t.Fatalf("front page revalidated %d times, want 1", revalidated)
	}
	if !reflect.DeepEqual(got, page.Stories) {
		t.Errorf("304 decoded %+v, want the cached page %+v", got, page.Stories)
	}
	for i, d := range details {
		var want apiv1.StoryDetail
		if err := json.Unmarshal(stories[fmt.Sprintf("/v1/stories/%d", i%4+1)], &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d, want) {
			t.Errorf("story %d changed after later reads", i%4+1)
		}
	}
}

// storyReadBytes returns the heap bytes one Client.Story call
// allocates for a story detail of n votes, over a warm client.
func storyReadBytes(t *testing.T, n int) float64 {
	c := staticClient(storyBody(t, 1, n))
	ctx := context.Background()
	read := func() {
		if _, err := c.Story(ctx, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		read() // warm the buffer pool and the transport's state
	}
	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / calls
}

// TestClientReadAllocsProportional is the SDK's read-cost guard: with
// no server in the loop, a Story call may allocate at most 1.25x its
// decoded vote list (16 B per vote) plus 4 KiB for the request and
// the story's other fields. Reading the body by doubling, or growing
// the list by doubling, fails by several times.
func TestClientReadAllocsProportional(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	for _, n := range []int{10, 100, 1000, 5000} {
		got := storyReadBytes(t, n)
		limit := 1.25*16*float64(n) + 4096
		t.Logf("%5d votes: %.0f B per Story call (limit %.0f)", n, got, limit)
		if got > limit {
			t.Errorf("%d votes: Story allocates %.0f B per call, over the %.0f B limit", n, got, limit)
		}
	}
}
