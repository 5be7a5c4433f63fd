package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"rstore/internal/types"
	"rstore/internal/workload"
)

// A writer holds the writer lock across its storage I/O and takes the store
// lock only to install what it has made durable, so a plan waits for no
// writer's I/O. These tests hold one write of a writer in a gating backend
// and query beside it.

// TestBesideWriterHeldWrites: while the cluster holds a commit's delta write,
// a flush's or Materialize's chunk or placement write, or the root write of
// SetBranch or Checkpoint, GetVersion, GetRange, GetRecord and GetHistory
// answer byte-exact within a second, and the writer completes once the write
// is let go.
func TestBesideWriterHeldWrites(t *testing.T) {
	ctx := context.Background()
	writers := []struct {
		what, table string
		write       func(st *Store) error
	}{
		{"a commit's delta write", TableDeltaStore, func(st *Store) error {
			_, err := st.Commit(ctx, 1, Change{Puts: map[types.Key][]byte{"doc-19": []byte("v2")}})
			return err
		}},
		{"a flush's chunk write", TableChunks, func(st *Store) error { return st.Flush(ctx) }},
		{"a flush's placement write", TablePlacement, func(st *Store) error { return st.Flush(ctx) }},
		{"Materialize's chunk write", TableChunks, func(st *Store) error { return st.Materialize(ctx) }},
		{"Materialize's placement write", TablePlacement, func(st *Store) error { return st.Materialize(ctx) }},
		{"SetBranch's root write", TableMeta, func(st *Store) error { return st.SetBranch(ctx, "dev", 1) }},
		{"Checkpoint's root write", TableMeta, func(st *Store) error { return st.Checkpoint(ctx) }},
	}
	for _, w := range writers {
		t.Run(w.what, func(t *testing.T) {
			st, be := openGated(t)
			v1, _, err := st.GetVersionAll(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			queries := besideQueries(ctx, v1)
			want := map[string][]types.Record{}
			for what, query := range queries {
				if want[what], err = query(st); err != nil {
					t.Fatalf("%s before the write: %v", what, err)
				}
			}

			g := be.hold(w.table, "batchput")
			done := make(chan error, 1)
			go func() { done <- w.write(st) }()
			g.reached(t, w.what)
			for what, query := range queries {
				var got []types.Record
				within(t, what+" beside "+w.what, func() (err error) {
					got, err = query(st)
					return err
				})
				sameRecords(t, what+" beside "+w.what, got, want[what])
			}
			be.open()
			within(t, w.what+" once let go", func() error { return <-done })
		})
	}
}

// TestBesideWriterOrder: writers queue behind one another, plans do not. A
// commit issued while another's delta write is held returns after it, with
// the next id, and a read beside both answers within a second.
func TestBesideWriterOrder(t *testing.T) {
	ctx := context.Background()
	st, be := openGated(t)
	want, _, err := st.GetVersionAll(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		v   types.VersionID
		err error
	}
	commit := func(key types.Key) <-chan result {
		out := make(chan result, 1)
		go func() {
			v, err := st.Commit(ctx, 1, Change{Puts: map[types.Key][]byte{key: []byte("v")}})
			out <- result{v, err}
		}()
		return out
	}

	g := be.hold(TableDeltaStore, "batchput")
	first := commit("first")
	g.reached(t, "the first commit")
	second := commit("second")
	var got []types.Record
	within(t, "GetVersion beside two commits", func() (err error) {
		got, _, err = st.GetVersionAll(ctx, 1)
		return err
	})
	sameRecords(t, "version 1 beside two commits", got, want)
	select {
	case r := <-second:
		t.Fatalf("the second commit returned (%d, %v) while the first was held", r.v, r.err)
	case <-time.After(100 * time.Millisecond):
	}

	be.open()
	for i, out := range []<-chan result{first, second} {
		select {
		case r := <-out:
			if r.err != nil || r.v != types.VersionID(2+i) {
				t.Fatalf("commit %d returned (%d, %v), want version %d", i+1, r.v, r.err, 2+i)
			}
		case <-time.After(time.Second):
			t.Fatalf("commit %d did not return within a second of the release", i+1)
		}
	}
}

// TestBesideWriterBulkLoad: a plan sees a bulk-loading store empty until the
// load installs the corpus with its chunks. While the cluster holds the
// load's chunk write, NumVersions answers 0 and GetVersion(0) that the
// version is unknown within a second; once the write is let go, every version
// reads byte-exact.
func TestBesideWriterBulkLoad(t *testing.T) {
	ctx := context.Background()
	c, err := workload.Generate(workload.Spec{
		Name: "beside-bulk", Versions: 12, AvgDepth: 4, RecordsPerVersion: 30,
		UpdatePct: 0.2, Update: workload.RandomUpdate, RecordSize: 64, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]types.Record, c.NumVersions())
	for v := range want {
		members, err := c.Members(types.VersionID(v))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range members {
			want[v] = append(want[v], c.Record(id))
		}
		types.SortRecords(want[v])
	}
	kv, be := gatedCluster(t)
	st, err := Open(ctx, Config{KV: kv, ChunkCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}

	g := be.hold(TableChunks, "batchput")
	done := make(chan error, 1)
	go func() { done <- st.BulkLoad(ctx, c) }()
	g.reached(t, "BulkLoad")
	within(t, "NumVersions beside a bulk load", func() error {
		if n := st.NumVersions(); n != 0 {
			return fmt.Errorf("%d versions before the load's chunks are written", n)
		}
		return nil
	})
	within(t, "GetVersion beside a bulk load", func() error {
		if _, _, err := st.GetVersionAll(ctx, 0); !errors.Is(err, types.ErrVersionUnknown) {
			return fmt.Errorf("GetVersion(0) before the load's chunks are written: %v, want version unknown", err)
		}
		return nil
	})
	be.open()
	within(t, "BulkLoad once let go", func() error { return <-done })
	for v := range want {
		got, _, err := st.GetVersionAll(ctx, types.VersionID(v))
		if err != nil {
			t.Fatalf("GetVersion(%d) after the load: %v", v, err)
		}
		sameRecords(t, fmt.Sprintf("version %d after the load", v), got, want[v])
	}
}
