package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// decodedCommit is what a commit's body came to: the request, or the status
// and error text it was answered with.
type decodedCommit struct {
	req    commitBody
	status int
	text   string
}

// referenceCommit decodes a commit body the way the server did before
// parseCommit: one json.Decoder over the body, read up to limit bytes.
func referenceCommit(body []byte, limit int64) decodedCommit {
	var req CommitRequest
	err := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/commit", bytes.NewReader(body)).Body, limit)).Decode(&req)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return decodedCommit{status: http.StatusRequestEntityTooLarge, text: fmt.Sprintf("commit body larger than %d bytes", tooLarge.Limit)}
	case err != nil:
		return decodedCommit{status: http.StatusBadRequest, text: "bad commit body: " + err.Error()}
	}
	return decodedCommit{req: commitBodyOf(req)}
}

// serverCommit reads a commit body through the handler's readCommit, with
// the server's bound at limit.
func serverCommit(t *testing.T, body []byte, limit int64) decodedCommit {
	t.Helper()
	s := &Server{maxBody: limit}
	rec := httptest.NewRecorder()
	req, ok := s.readCommit(rec, httptest.NewRequest(http.MethodPost, "/commit", bytes.NewReader(body)))
	if ok {
		return decodedCommit{req: req}
	}
	var e struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body %q: %v", rec.Body, err)
	}
	return decodedCommit{status: rec.Code, text: e.Error}
}

// commitBodySeeds are bodies parseCommit must take or hand to encoding/json
// with the same outcome: escaped keys, null, repeated fields and keys,
// fields in other cases, trailing bytes, numbers no int64 holds, strings
// that unescape to U+FFFD, and base64 encoding/json refuses.
var commitBodySeeds = []string{
	`{"parent":-1,"puts":{"k":"dg=="},"branch":"main"}`,
	`{"parent":4,"parents":[1,2],"puts":{"a":"","b":"AAEC"},"deletes":["c","d"],"branch":"dev"}`,
	` { "parent" : 3 ,"puts" : { "k" : "dg==" } , "deletes" : [ "x" ] }` + "\n",
	`{}`,
	`{"puts":{}}`,
	`{"deletes":[],"parents":[]}`,
	`{"puts":{"aé\n\t\"\\\/\b\f\r😀 <>&":"dg=="},"deletes":["\u0000","é"]}`,
	`{"puts":{"\ud800":"dg=="}}`,
	`{"puts":{"\ud800A":"dg=="}}`,
	`{"puts":{"\udc00\ud800":"dg=="}}`,
	"{\"puts\":{\"\xff\":\"dg==\"}}",
	"{\"deletes\":[\"\xed\xa0\x80\"]}",
	`{"deletes":["\'"]}`,
	`{"deletes":["\x41"]}`,
	`{"parent":null}`,
	`{"puts":null}`,
	`{"puts":{"k":null}}`,
	`{"deletes":null,"branch":null}`,
	`null`,
	`{"parent":1,"parent":2}`,
	`{"puts":{"k":"AA=="},"puts":{"j":"AQ=="}}`,
	`{"puts":{"k":"AA==","k":"AQ=="}}`,
	`{"Parent":1,"PUTS":{"k":"dg=="}}`,
	`{"parent":1}`,
	`{"parent":1,"extra":{"x":[1,2]}}`,
	`{"parent":1} trailing`,
	`{"parent":1}{"parent":2}`,
	`{"parent":1.5}`,
	`{"parent":1e3}`,
	`{"parent":01}`,
	`{"parent":-}`,
	`{"parent":-0}`,
	`{"parent":9223372036854775808}`,
	`{"parent":"1"}`,
	`{"puts":{"k":"d"}}`,
	`{"puts":{"k":"dg\n=="}}`,
	"{\"puts\":{\"k\":\"dg\n==\"}}",
	`{"puts":{"k":"dg=="}}`,
	`{"puts":{"k":"dg=="`,
	`{"puts":["not","a","map"]}`,
	`{"puts":{"k":"dg=="},}`,
	``,
	`[]`,
}

// FuzzCommitBody: for any body and bound, the handler's reading of a commit
// is the one encoding/json gave before parseCommit: the same change,
// parents and branch, or the same status and error text.
func FuzzCommitBody(f *testing.F) {
	for _, body := range commitBodySeeds {
		f.Add([]byte(body), uint8(16))
	}
	f.Add([]byte(`{"parent":-1,"puts":{"k":"AAAAAAAA"}}`), uint8(0))
	f.Add([]byte(`{"parent":-1} and then some`), uint8(0))
	f.Fuzz(func(t *testing.T, body []byte, slack uint8) {
		limit := int64(len(body)) - 8 + int64(slack%32) // within or past the body
		got, want := serverCommit(t, body, limit), referenceCommit(body, limit)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q, bound %d: read %+v, encoding/json read %+v", body, limit, got, want)
		}
	})
}

// TestParseCommitTakesMarshaledBodies: what json.Marshal makes of a
// CommitRequest, indented or not, parseCommit takes itself.
func TestParseCommitTakesMarshaledBodies(t *testing.T) {
	for _, req := range []CommitRequest{
		{Parent: -1, Branch: "main"},
		{Parent: -1, Puts: map[string][]byte{"k": []byte("v"), "": {}, "<&> \x01\"": bytes.Repeat([]byte{0xff}, 700)}},
		{Parent: 7, Parents: []int64{3, 5}, Puts: map[string][]byte{"a": {1}}, Deletes: []string{"b", "c\n"}, Branch: "dev"},
	} {
		compact, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(req, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{compact, indented} {
			got, ok := parseCommit(body)
			if !ok {
				t.Fatalf("parseCommit refused %s", body)
			}
			if want := commitBodyOf(req); !reflect.DeepEqual(got, want) {
				t.Fatalf("parseCommit(%s) = %+v, want %+v", body, got, want)
			}
		}
	}
}

// BenchmarkCommitBody reads the body of an ingest commit, 150 puts of 512 B
// (json.Marshal's bytes of a CommitRequest), the way the handler does
// (readCommit, whose parseCommit takes it) and the way encoding/json does.
func BenchmarkCommitBody(b *testing.B) {
	req := CommitRequest{Parent: 3000, Puts: make(map[string][]byte, 150), Branch: "main"}
	rng := rand.New(rand.NewSource(1))
	for i := range 150 {
		v := make([]byte, 512)
		rng.Read(v)
		req.Puts[fmt.Sprintf("k%08d", i*20)] = v
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/commit", nil)
	r.ContentLength = int64(len(body))
	s, w := &Server{maxBody: 1 << 30}, httptest.NewRecorder()
	for _, read := range []struct {
		name string
		read func() bool
	}{
		{"parse", func() bool {
			_, ok := s.readCommit(w, r)
			return ok
		}},
		{"encoding-json", func() bool {
			var req CommitRequest
			ok := s.decodeBody(w, http.MaxBytesReader(w, r.Body, s.maxBody), "commit", &req)
			_ = commitBodyOf(req)
			return ok
		}},
	} {
		b.Run(read.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for range b.N {
				r.Body = io.NopCloser(bytes.NewReader(body))
				if !read.read() {
					b.Fatal("the body was refused")
				}
			}
		})
	}
}
