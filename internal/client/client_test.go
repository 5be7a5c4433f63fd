package client_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"rstore/internal/client"
	"rstore/internal/core"
	"rstore/internal/server"
	"rstore/internal/types"
)

func startServer(t *testing.T) *client.Client {
	t.Helper()
	st, err := core.Open(context.Background(), core.Config{ChunkCapacity: 4096, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(st))
	t.Cleanup(ts.Close)
	return client.New(ts.URL, ts.Client())
}

func TestClientEndToEnd(t *testing.T) {
	c := startServer(t)

	v0, err := c.Commit(context.Background(), -1, map[string][]byte{
		"a": []byte(`{"rev":0}`), "b": []byte(`{"rev":0}`),
	}, nil, "main")
	if err != nil || v0 != 0 {
		t.Fatalf("root commit: %v %v", v0, err)
	}
	v1, err := c.Commit(context.Background(), int64(v0), map[string][]byte{
		"a": []byte(`{"rev":1}`),
	}, []string{"b"}, "main")
	if err != nil {
		t.Fatal(err)
	}

	// GetVersion by branch name.
	recs, stats, err := c.GetVersionAll(context.Background(), "main")
	if err != nil || len(recs) != 1 {
		t.Fatalf("GetVersion: %d records, %v", len(recs), err)
	}
	if recs[0].CK.Key != "a" || string(recs[0].Value) != `{"rev":1}` {
		t.Fatalf("record: %+v", recs[0])
	}
	if stats.Span != 0 { // both versions are pending: served from memory
		t.Fatalf("span %d while pending", stats.Span)
	}

	// GetRecord at the old version.
	rec, _, err := c.GetRecord(context.Background(), "0", "b")
	if err != nil || string(rec.Value) != `{"rev":0}` {
		t.Fatalf("old b: %q %v", rec.Value, err)
	}

	// Missing record maps onto ErrNotFound through the wire.
	if _, _, err := c.GetRecord(context.Background(), "1", "b"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("deleted record: %v", err)
	}

	// Range.
	recs, _, err = c.GetRangeAll(context.Background(), "0", "a", "b")
	if err != nil || len(recs) != 1 || recs[0].CK.Key != "a" {
		t.Fatalf("range: %v %v", recs, err)
	}

	// History.
	hist, _, err := c.GetHistoryAll(context.Background(), "a")
	if err != nil || len(hist) != 2 {
		t.Fatalf("history: %d %v", len(hist), err)
	}

	// Diff.
	d, err := c.Diff(context.Background(), 0, types.VersionID(v1))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 1 || len(d.Removed) != 2 || len(d.Modified) != 1 {
		t.Fatalf("diff: %+v", d)
	}
	if d.Modified[0] != "a" {
		t.Fatalf("modified: %v", d.Modified)
	}

	// Branch management.
	if err := c.SetBranch(context.Background(), "rel", 0); err != nil {
		t.Fatal(err)
	}
	branches, branchErrs, err := c.Branches(context.Background())
	if err != nil || len(branchErrs) != 0 || branches["rel"] != 0 || branches["main"] != int64(v1) {
		t.Fatalf("branches: %v %v %v", branches, branchErrs, err)
	}

	// Flush + stats.
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats2, err := c.Stats(context.Background())
	if err != nil || stats2["pending"].(float64) != 0 {
		t.Fatalf("stats: %v %v", stats2, err)
	}
	if _, stats, err = c.GetVersionAll(context.Background(), "main"); err != nil || stats.Span == 0 {
		t.Fatalf("main once placed: span %d, %v", stats.Span, err)
	}
}

func TestClientMerge(t *testing.T) {
	c := startServer(t)
	v0, _ := c.Commit(context.Background(), -1, map[string][]byte{"x": []byte("0")}, nil, "")
	v1, _ := c.Commit(context.Background(), int64(v0), map[string][]byte{"x": []byte("1")}, nil, "")
	v2, _ := c.Commit(context.Background(), int64(v0), map[string][]byte{"y": []byte("2")}, nil, "")
	vm, err := c.CommitMerge(context.Background(), []int64{int64(v1), int64(v2)},
		map[string][]byte{"y": []byte("2")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := c.GetVersionAll(context.Background(), itoa(vm))
	if err != nil || len(recs) != 2 {
		t.Fatalf("merge contents: %d %v", len(recs), err)
	}
	if _, err := c.CommitMerge(context.Background(), nil, nil, nil); err == nil {
		t.Fatal("empty parents accepted")
	}
}

func TestClientTransportErrors(t *testing.T) {
	c := client.New("http://127.0.0.1:1", nil) // nothing listening
	if _, _, err := c.GetVersionAll(context.Background(), "0"); err == nil {
		t.Fatal("dead server produced no error")
	}
	var apiErr *client.APIError
	live := startServer(t)
	_, _, err := live.GetVersionAll(context.Background(), "99")
	if !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("unknown version: %v", err)
	}
}

func itoa(v types.VersionID) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n := uint32(v); n > 0; n /= 10 {
		i--
		buf[i] = byte('0' + n%10)
	}
	return string(buf[i:])
}
