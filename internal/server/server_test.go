package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rstore/internal/core"
	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote/wire"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

func newServer(t *testing.T) (*httptest.Server, *core.Store) {
	t.Helper()
	st, err := core.Open(context.Background(), core.Config{ChunkCapacity: 4096, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(st))
	t.Cleanup(ts.Close)
	return ts, st
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// getStream reads an NDJSON streaming query response, reassembling it into
// the buffered QueryResponse shape for assertions. Failed requests (non-2xx)
// return without decoding; a mid-stream error line is returned separately.
func getStream(t *testing.T, url string) (*http.Response, QueryResponse, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if resp.StatusCode >= 300 {
		return resp, qr, ""
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("streaming endpoint content type %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	sawStats := false
	for {
		var line StreamLine
		if err := dec.Decode(&line); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatalf("stream line: %v", err)
		}
		switch {
		case line.Record != nil:
			if sawStats {
				t.Fatal("record after the stats trailer")
			}
			qr.Records = append(qr.Records, *line.Record)
		case line.Stats != nil:
			qr.Stats = *line.Stats
			sawStats = true
		case line.Error != "":
			return resp, qr, line.Error
		}
	}
	if !sawStats {
		t.Fatal("stream ended without a stats trailer")
	}
	return resp, qr, ""
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestHTTPCommitAndQueries(t *testing.T) {
	ts, _ := newServer(t)

	// Root commit advancing main.
	var cr CommitResponse
	resp := postJSON(t, ts.URL+"/commit", CommitRequest{
		Parent: -1,
		Puts:   map[string][]byte{"doc-a": []byte(`{"v":0}`), "doc-b": []byte(`{"v":0}`)},
		Branch: "main",
	}, &cr)
	if resp.StatusCode != 200 || cr.Version != 0 {
		t.Fatalf("root commit: %d %+v", resp.StatusCode, cr)
	}

	// Child commit.
	postJSON(t, ts.URL+"/commit", CommitRequest{
		Parent:  0,
		Puts:    map[string][]byte{"doc-a": []byte(`{"v":1}`)},
		Deletes: []string{"doc-b"},
		Branch:  "main",
	}, &cr)
	if cr.Version != 1 {
		t.Fatalf("second commit version %d", cr.Version)
	}

	// Full version by id and by branch name, streamed as NDJSON.
	for _, ref := range []string{"1", "main"} {
		resp, qr, errLine := getStream(t, ts.URL+"/version/"+ref)
		if errLine != "" {
			t.Fatalf("version/%s: error line %q", ref, errLine)
		}
		if resp.StatusCode != 200 || len(qr.Records) != 1 {
			t.Fatalf("version/%s: %d, %d records", ref, resp.StatusCode, len(qr.Records))
		}
		if qr.Records[0].Key != "doc-a" || string(qr.Records[0].Value) != `{"v":1}` {
			t.Fatalf("version/%s record: %+v", ref, qr.Records[0])
		}
		if qr.Stats.Span != 0 { // both versions are pending: served from memory
			t.Fatalf("version/%s: span %d while pending", ref, qr.Stats.Span)
		}
		if qr.Stats.Records != len(qr.Records) {
			t.Fatalf("version/%s: trailer counts %d records, stream had %d", ref, qr.Stats.Records, len(qr.Records))
		}
	}

	// Point query at the old version still sees the old value.
	var qr QueryResponse
	getJSON(t, ts.URL+"/version/0/record/doc-a", &qr)
	if len(qr.Records) != 1 || string(qr.Records[0].Value) != `{"v":0}` {
		t.Fatalf("old record: %+v", qr.Records)
	}

	// Missing key → 404.
	resp = getJSON(t, ts.URL+"/version/0/record/ghost", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost record: %d", resp.StatusCode)
	}

	// Range retrieval.
	_, qr2, _ := getStream(t, ts.URL+"/version/0/range?lo=doc-a&hi=doc-b")
	if len(qr2.Records) != 1 || qr2.Records[0].Key != "doc-a" {
		t.Fatalf("range: %+v", qr2.Records)
	}

	// History.
	_, qr3, _ := getStream(t, ts.URL+"/history/doc-a")
	if len(qr3.Records) != 2 {
		t.Fatalf("history: %d records", len(qr3.Records))
	}

	// Branches.
	var branches BranchesResponse
	getJSON(t, ts.URL+"/branches", &branches)
	if branches.Branches["main"] != 1 || len(branches.Errors) != 0 {
		t.Fatalf("branches: %+v", branches)
	}

	// Flush + stats.
	resp = postJSON(t, ts.URL+"/flush", struct{}{}, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("flush: %d", resp.StatusCode)
	}
	var stats map[string]any
	getJSON(t, ts.URL+"/stats", &stats)
	if stats["versions"].(float64) != 2 || stats["pending"].(float64) != 0 {
		t.Fatalf("stats: %v", stats)
	}
	if _, qr, _ := getStream(t, ts.URL+"/version/1"); qr.Stats.Span == 0 {
		t.Fatal("version/1 once placed: zero span")
	}
}

func TestHTTPSetBranch(t *testing.T) {
	ts, st := newServer(t)
	if _, err := st.Commit(context.Background(), types.InvalidVersion, core.Change{}); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/branch/dev",
		bytes.NewReader([]byte(`{"version":0}`)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("set branch: %d", resp.StatusCode)
	}
	tip, err := st.Tip("dev")
	if err != nil || tip != 0 {
		t.Fatalf("tip: %v %v", tip, err)
	}
	// Unknown version rejected.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/branch/dev",
		bytes.NewReader([]byte(`{"version":99}`)))
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		t.Fatal("unknown version accepted")
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, _ := newServer(t)
	// Commit with bad JSON.
	resp, err := http.Post(ts.URL+"/commit", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d", resp.StatusCode)
	}
	// Query on empty store.
	resp = getJSON(t, ts.URL+"/version/0", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty store query: %d", resp.StatusCode)
	}
}

// TestStatusOf: errors that say "not now, and not your fault" — a closed
// store, a store poisoned by a failed placement run, a cluster whose
// replicas are down — are 503, not 400; stored bytes that fail to decode
// are the server's fault, 500.
func TestStatusOf(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{fmt.Errorf("%w: %w", types.ErrPoisoned, io.ErrUnexpectedEOF), http.StatusServiceUnavailable},
		{types.ErrClosed, http.StatusServiceUnavailable},
		{fmt.Errorf("all replicas down: %w", engine.ErrUnavailable), http.StatusServiceUnavailable},
		{fmt.Errorf("segment: %w", types.ErrCorrupt), http.StatusInternalServerError},
		{types.ErrReadOnly, http.StatusForbidden},
		{&types.VersionUnknownError{Version: 3}, http.StatusNotFound},
		{io.ErrUnexpectedEOF, http.StatusBadRequest},
	} {
		if got := statusOf(tc.err); got != tc.want {
			t.Errorf("statusOf(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestHTTPRefusesOutOfRangeVersions: a version id past the 32-bit id space
// is refused with 400, not truncated onto a real version — a commit's
// parent or a branch's target 2^32 is not version 0.
func TestHTTPRefusesOutOfRangeVersions(t *testing.T) {
	ts, st := newServer(t)
	if resp := postJSON(t, ts.URL+"/commit", CommitRequest{Parent: -1, Branch: "main"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("root commit: %d", resp.StatusCode)
	}
	for _, req := range []CommitRequest{
		{Parent: 1 << 32, Puts: map[string][]byte{"a": []byte("1")}},
		{Parent: int64(types.InvalidVersion)},
		{Parent: 0, Parents: []int64{1<<32 + 1}},
	} {
		if resp := postJSON(t, ts.URL+"/commit", req, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("commit %+v: status %d, want 400", req, resp.StatusCode)
		}
	}
	for _, name := range []string{"main", "b"} {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/branch/"+name, bytes.NewReader([]byte(`{"version":4294967296}`)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("PUT /branch/%s to 2^32: status %d, want 400", name, resp.StatusCode)
		}
	}
	if n := st.NumVersions(); n != 1 {
		t.Fatalf("%d versions after the refused commits, want 1", n)
	}
	if _, err := st.Tip("b"); err == nil {
		t.Fatal("a refused PUT /branch/b created the branch")
	}
	if tip, err := st.Tip("main"); err != nil || tip != 0 {
		t.Fatalf("main = %d, %v; want 0", tip, err)
	}
}

// TestHTTPClusterOutageIs503: a read none of whose replicas answers is a
// cluster outage — 503, retry later — not a bad request.
func TestHTTPClusterOutageIs503(t *testing.T) {
	ctx := context.Background()
	be := memory.New()
	kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1, NewBackend: func(int) (engine.Backend, error) { return be, nil }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kv.Close() })
	st, err := core.Open(ctx, core.Config{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(ctx, types.InvalidVersion, core.Change{Puts: map[types.Key][]byte{"a": []byte("1")}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(st))
	t.Cleanup(ts.Close)
	be.SetDown(true)
	resp, _, _ := getStream(t, ts.URL+"/version/0")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /version/0 with every replica down: status %d, want 503", resp.StatusCode)
	}
}

// TestHTTPFlushStatus: /flush answers a refused flush with the status every
// other route gives the same error — 403 on a read-only store, not 500.
func TestHTTPFlushStatus(t *testing.T) {
	ctx := context.Background()
	kv, err := kvstore.Open(ctx, kvstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kv.Close() })
	st, err := core.Open(ctx, core.Config{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(ctx, types.InvalidVersion, core.Change{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	ro, err := core.Load(ctx, core.Config{KV: kv, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(ro))
	t.Cleanup(ts.Close)
	if resp := postJSON(t, ts.URL+"/flush", nil, nil); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("POST /flush on a read-only store: status %d, want 403", resp.StatusCode)
	}
}

func TestHTTPMergeCommit(t *testing.T) {
	ts, st := newServer(t)
	var cr CommitResponse
	postJSON(t, ts.URL+"/commit", CommitRequest{
		Parent: -1, Puts: map[string][]byte{"a": []byte("0")},
	}, &cr)
	postJSON(t, ts.URL+"/commit", CommitRequest{
		Parent: 0, Puts: map[string][]byte{"a": []byte("1")},
	}, &cr)
	postJSON(t, ts.URL+"/commit", CommitRequest{
		Parent: 0, Puts: map[string][]byte{"b": []byte("2")},
	}, &cr)
	// Merge v1 (primary) + v2.
	resp := postJSON(t, ts.URL+"/commit", CommitRequest{
		Parent: 1, Parents: []int64{2},
		Puts: map[string][]byte{"b": []byte("2")},
	}, &cr)
	if resp.StatusCode != 200 {
		t.Fatalf("merge commit: %d", resp.StatusCode)
	}
	parents := st.Parents(types.VersionID(cr.Version))
	if len(parents) != 2 || parents[0] != 1 || parents[1] != 2 {
		t.Fatalf("merge parents: %v", parents)
	}
	_, qr, _ := getStream(t, fmt.Sprintf("%s/version/%d", ts.URL, cr.Version))
	if len(qr.Records) != 2 {
		t.Fatalf("merge contents: %d records", len(qr.Records))
	}
}

func TestHTTPDiff(t *testing.T) {
	ts, _ := newServer(t)
	var cr CommitResponse
	postJSON(t, ts.URL+"/commit", CommitRequest{
		Parent: -1, Puts: map[string][]byte{"a": []byte("0"), "b": []byte("0")},
	}, &cr)
	postJSON(t, ts.URL+"/commit", CommitRequest{
		Parent: 0, Puts: map[string][]byte{"a": []byte("1")}, Deletes: []string{"b"},
	}, &cr)

	var d DiffJSON
	resp := getJSON(t, ts.URL+"/diff?a=0&b=1", &d)
	if resp.StatusCode != 200 {
		t.Fatalf("diff status %d", resp.StatusCode)
	}
	if len(d.Added) != 1 || len(d.Removed) != 2 || len(d.Modified) != 1 {
		t.Fatalf("diff: %+v", d)
	}
	if d.Added[0].Key != "a" || d.Added[0].OriginVersion != 1 {
		t.Fatalf("added: %+v", d.Added)
	}
	// Unknown version refs 404.
	if resp := getJSON(t, ts.URL+"/diff?a=0&b=99", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("diff with bad version: %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/diff?a=nope&b=0", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("diff with bad ref: %d", resp.StatusCode)
	}
}

func TestHTTPRangeDefaults(t *testing.T) {
	ts, _ := newServer(t)
	var cr CommitResponse
	postJSON(t, ts.URL+"/commit", CommitRequest{
		Parent: -1, Puts: map[string][]byte{"a": []byte("1"), "z": []byte("2")},
	}, &cr)
	// No hi bound: the explicit unbounded range, not a sentinel key.
	resp, qr, _ := getStream(t, ts.URL+"/version/0/range?lo=a")
	if resp.StatusCode != 200 || len(qr.Records) != 2 {
		t.Fatalf("open-ended range: %d, %d records", resp.StatusCode, len(qr.Records))
	}
	// Bad version in range 404s.
	if resp := getJSON(t, ts.URL+"/version/42/range?lo=a", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("range bad version: %d", resp.StatusCode)
	}
	// History of a missing key 404s.
	if resp := getJSON(t, ts.URL+"/history/ghost", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost history: %d", resp.StatusCode)
	}
}

// Error-path coverage: the JSON API must translate malformed input and
// unknown names into the right status codes with a JSON error body, and
// /stats must keep its wire shape.

// errBody decodes the {"error": ...} payload every failure returns.
func errBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if out["error"] == "" {
		t.Fatal("error body missing the error field")
	}
	return out["error"]
}

func TestHTTPMalformedCommitJSON(t *testing.T) {
	ts, _ := newServer(t)
	resp, err := http.Post(ts.URL+"/commit", "application/json",
		bytes.NewReader([]byte(`{"parent": -1, "puts": {`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated commit JSON: status %d", resp.StatusCode)
	}
	errBody(t, resp)

	// Valid JSON, wrong shape for the puts map: still a 400, not a panic.
	resp2, err := http.Post(ts.URL+"/commit", "application/json",
		bytes.NewReader([]byte(`{"parent": -1, "puts": ["not","a","map"]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("mistyped commit JSON: status %d", resp2.StatusCode)
	}
	errBody(t, resp2)
}

// TestHTTPBodyBound: a commit or branch body that runs past the server's
// bound is answered 413, and no more than the bound and a byte of it is read.
// (The bound is a frame of the wire, 1 GiB; it is lowered here to 1 KiB.)
func TestHTTPBodyBound(t *testing.T) {
	st, err := core.Open(context.Background(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	if srv.maxBody != wire.MaxFrame {
		t.Fatalf("the server reads bodies of up to %d bytes, want %d", srv.maxBody, wire.MaxFrame)
	}
	srv.maxBody = 1 << 10
	for _, tc := range []struct{ method, path, prefix string }{
		{http.MethodPost, "/commit", `{"parent": -1, "puts": {"k": "`},
		{http.MethodPut, "/branch/dev", `{"version": 1`},
	} {
		// The prefix, then a MiB of a base64 value or of a version's digits.
		body := &countingReader{r: io.MultiReader(strings.NewReader(tc.prefix), io.LimitReader(endless('0'), 1<<20))}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, body))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s of a MiB: status %d, %s", tc.method, tc.path, rec.Code, rec.Body)
		}
		if body.n > srv.maxBody+1 {
			t.Errorf("%s %s: %d bytes of the body read, the bound is %d", tc.method, tc.path, body.n, srv.maxBody)
		}
	}
	// A body within the bound is served.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/commit", strings.NewReader(`{"parent": -1, "puts": {"k": "dg=="}}`)))
	if rec.Code != http.StatusOK {
		t.Errorf("a commit within the bound: status %d, %s", rec.Code, rec.Body)
	}
}

// endless reads as the byte b, forever.
type endless byte

func (e endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(e)
	}
	return len(p), nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func TestHTTPSetBranchErrors(t *testing.T) {
	ts, _ := newServer(t)
	var cr CommitResponse
	if resp := postJSON(t, ts.URL+"/commit", CommitRequest{Parent: -1, Branch: "main"}, &cr); resp.StatusCode != 200 {
		t.Fatalf("root commit: %d", resp.StatusCode)
	}

	put := func(name, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/branch/"+name, bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Garbage body.
	resp := put("dev", `{"version": `)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage branch body: status %d", resp.StatusCode)
	}
	errBody(t, resp)

	// Unknown version.
	resp = put("dev", `{"version": 999}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("branch to unknown version: status %d", resp.StatusCode)
	}
	errBody(t, resp)

	// The failed attempts must not have created the branch.
	var branches BranchesResponse
	getJSON(t, ts.URL+"/branches", &branches)
	if _, ok := branches.Branches["dev"]; ok {
		t.Fatal("failed PUT /branch created the branch anyway")
	}

	// Queries against the unknown branch name: 404, not a parse panic.
	r2 := getJSON(t, ts.URL+"/version/dev", nil)
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown branch: status %d", r2.StatusCode)
	}
}

func TestHTTPRangeErrors(t *testing.T) {
	ts, _ := newServer(t)
	var cr CommitResponse
	postJSON(t, ts.URL+"/commit", CommitRequest{
		Parent: -1, Branch: "main",
		Puts: map[string][]byte{"a": []byte("1"), "b": []byte("2"), "z": []byte("3")},
	}, &cr)

	// Unknown version in the path.
	if resp := getJSON(t, ts.URL+"/version/42/range?lo=a&hi=z", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("range on unknown version: status %d", resp.StatusCode)
	}
	// Inverted bounds select nothing — an empty result, not an error.
	resp, q, _ := getStream(t, ts.URL+"/version/0/range?lo=z&hi=a")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inverted range: status %d", resp.StatusCode)
	}
	if len(q.Records) != 0 {
		t.Fatalf("inverted range returned %d records", len(q.Records))
	}
	// Omitted hi reads to the top of the keyspace.
	resp, q, _ = getStream(t, ts.URL+"/version/0/range?lo=b")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open range: status %d", resp.StatusCode)
	}
	if len(q.Records) != 2 {
		t.Fatalf("open range returned %d records, want 2 (b, z)", len(q.Records))
	}
	// A present-but-empty hi stays a bound — [b, "") selects nothing,
	// matching the library — instead of silently going unbounded.
	resp, q, _ = getStream(t, ts.URL+"/version/0/range?lo=b&hi=")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty-hi range: status %d", resp.StatusCode)
	}
	if len(q.Records) != 0 {
		t.Fatalf("empty-hi range returned %d records, want 0", len(q.Records))
	}
}

func TestHTTPStatsShape(t *testing.T) {
	ts, _ := newServer(t)
	postJSON(t, ts.URL+"/commit", CommitRequest{
		Parent: -1, Branch: "main", Puts: map[string][]byte{"k": []byte("v")},
	}, nil)
	var stats map[string]json.Number
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(&stats); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	for _, field := range []string{"versions", "chunks", "pending", "total_span", "bytes_stored", "requests"} {
		n, ok := stats[field]
		if !ok {
			t.Fatalf("stats missing %q (got %v)", field, stats)
		}
		if _, err := n.Int64(); err != nil {
			t.Fatalf("stats %q is not numeric: %v", field, n)
		}
	}
	if v, _ := stats["versions"].Int64(); v != 1 {
		t.Fatalf("versions = %v, want 1", stats["versions"])
	}
}
