package rstore_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"rstore"
)

// TestStoreReopen is the durability acceptance test at the library level: a
// store committed on the lsm backend, closed, and reopened from the same
// data directory must return identical results for every version, record,
// and history query.
func TestStoreReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := rstore.Config{Engine: rstore.EngineLSM, DataDir: dir, BatchSize: 2}

	st, err := rstore.Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	doc := func(i, rev int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf(`{"doc":%d,"rev":%d}`, i, rev)), 20)
	}
	v0, err := st.Commit(context.Background(), rstore.NoParent, rstore.Change{Puts: map[rstore.Key][]byte{
		"doc-0": doc(0, 0), "doc-1": doc(1, 0), "doc-2": doc(2, 0),
	}})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := st.Commit(context.Background(), v0, rstore.Change{Puts: map[rstore.Key][]byte{
		"doc-1": doc(1, 1), "doc-3": doc(3, 1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := st.Commit(context.Background(), v1, rstore.Change{
		Puts:    map[rstore.Key][]byte{"doc-0": doc(0, 2)},
		Deletes: []rstore.Key{"doc-2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A branch off v0 exercises the non-linear graph on reload.
	vb, err := st.Commit(context.Background(), v0, rstore.Change{Puts: map[rstore.Key][]byte{
		"doc-9": doc(9, 0),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetBranch(context.Background(), "dev", vb); err != nil {
		t.Fatal(err)
	}
	if err := st.SetBranch(context.Background(), "main", v2); err != nil {
		t.Fatal(err)
	}

	type versionState map[rstore.Key]string
	snapshot := func(s *rstore.Store) map[rstore.VersionID]versionState {
		out := make(map[rstore.VersionID]versionState)
		for _, v := range []rstore.VersionID{v0, v1, v2, vb} {
			recs, _, err := s.GetVersionAll(context.Background(), v)
			if err != nil {
				t.Fatalf("GetVersion(%d): %v", v, err)
			}
			vs := versionState{}
			for _, r := range recs {
				vs[r.CK.Key] = string(r.Value)
			}
			out[v] = vs
		}
		return out
	}
	before := snapshot(st)
	histBefore, _, err := st.GetHistoryAll(context.Background(), "doc-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The store is closed: its private cluster's files are released.
	if _, err := st.Commit(context.Background(), v2, rstore.Change{}); !errors.Is(err, rstore.ErrClosed) {
		t.Fatalf("commit on closed store: %v", err)
	}

	re, err := rstore.Load(context.Background(), rstore.Config{Engine: rstore.EngineLSM, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	after := snapshot(re)
	for v, want := range before {
		got := after[v]
		if len(got) != len(want) {
			t.Fatalf("version %d: %d records after reopen, want %d", v, len(got), len(want))
		}
		for k, val := range want {
			if got[k] != val {
				t.Fatalf("version %d key %s changed across reopen", v, k)
			}
		}
	}
	histAfter, _, err := re.GetHistoryAll(context.Background(), "doc-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(histAfter) != len(histBefore) {
		t.Fatalf("history %d entries after reopen, want %d", len(histAfter), len(histBefore))
	}
	for i := range histBefore {
		if histBefore[i].CK != histAfter[i].CK || !bytes.Equal(histBefore[i].Value, histAfter[i].Value) {
			t.Fatalf("history entry %d differs after reopen", i)
		}
	}
	for _, b := range []string{"main", "dev"} {
		want, _ := st.Tip(b)
		got, err := re.Tip(b)
		if err != nil || got != want {
			t.Fatalf("branch %s = %d, %v; want %d", b, got, err, want)
		}
	}

	// And the reopened store keeps working: new commits land durably too.
	v3, err := re.Commit(context.Background(), v2, rstore.Change{Puts: map[rstore.Key][]byte{"doc-4": doc(4, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := rstore.Load(context.Background(), rstore.Config{Engine: rstore.EngineLSM, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	rec, _, err := re2.GetRecord(context.Background(), "doc-4", v3)
	if err != nil || !bytes.Equal(rec.Value, doc(4, 3)) {
		t.Fatalf("doc-4@v3 after second reopen: %v", err)
	}
}

// TestLoadMissingStore: loading an empty data directory fails with
// ErrNotFound rather than fabricating an empty store.
func TestLoadMissingStore(t *testing.T) {
	_, err := rstore.Load(context.Background(), rstore.Config{Engine: rstore.EngineLSM, DataDir: t.TempDir()})
	if !errors.Is(err, rstore.ErrNotFound) {
		t.Fatalf("load of empty dir: %v", err)
	}
}
