package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// TestReadReplica opens a second, read-only application server over the
// same cluster (the paper's multi-AS deployment, §2.4): it serves every
// query but rejects all mutations.
func TestReadReplica(t *testing.T) {
	kv, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 3, ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	primary, m := buildStore(t, Config{KV: kv, ChunkCapacity: 1024, BatchSize: 5}, 14, 25, 31)
	if err := primary.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	replica, err := Open(context.Background(), Config{KV: kv, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	checkAllVersions(t, replica, m)

	// Every mutation is rejected with ErrReadOnly.
	if _, err := replica.Commit(context.Background(), 0, Change{Puts: map[types.Key][]byte{"x": []byte("1")}}); !errors.Is(err, types.ErrReadOnly) {
		t.Fatalf("Commit: %v", err)
	}
	if _, err := replica.CommitDelta(context.Background(), []types.VersionID{0}, &types.Delta{}); !errors.Is(err, types.ErrReadOnly) {
		t.Fatalf("CommitDelta: %v", err)
	}
	if err := replica.Flush(context.Background()); !errors.Is(err, types.ErrReadOnly) {
		t.Fatalf("Flush: %v", err)
	}
	if err := replica.Materialize(context.Background()); !errors.Is(err, types.ErrReadOnly) {
		t.Fatalf("Materialize: %v", err)
	}
	if err := replica.SetBranch(context.Background(), "x", 0); !errors.Is(err, types.ErrReadOnly) {
		t.Fatalf("SetBranch: %v", err)
	}

	// The primary keeps writing — three further flushes, racing the
	// replica's reads. Flush only ever adds chunk payloads and placement
	// records past the root the replica loaded from and never rewrites what
	// that root covers, so the replica keeps answering its versions
	// byte-exact throughout.
	loaded := &model{versions: m.versions[:len(m.versions):len(m.versions)]}
	type written struct {
		parent types.VersionID
		ch     Change
		v      types.VersionID
		err    error
	}
	writes := make(chan written, 3) // one slot per write: the writer never blocks on a reader that failed
	go func() {
		defer close(writes)
		parent := types.VersionID(0)
		for round := 0; round < 3; round++ {
			ch := Change{Puts: map[types.Key][]byte{key(round): []byte(fmt.Sprintf("newer-%d", round))}}
			v, err := primary.Commit(context.Background(), parent, ch)
			if err == nil {
				err = primary.Flush(context.Background())
			}
			writes <- written{parent: parent, ch: ch, v: v, err: err}
			if err != nil {
				return
			}
			parent = v
		}
	}()
	for racing := true; racing; {
		select {
		case w, ok := <-writes:
			if !ok {
				racing = false
			} else if w.err != nil {
				t.Fatalf("primary write: %v", w.err)
			} else {
				m.commit(w.parent, w.ch, w.v)
			}
		default:
			checkAllVersions(t, replica, loaded)
		}
	}
	checkAllVersions(t, replica, loaded)
	if n := replica.NumVersions(); n != len(loaded.versions) {
		t.Fatalf("replica grew to %d versions without a reload", n)
	}
	// Close works without attempting a flush.
	if err := replica.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A freshly loaded replica sees the updates.
	replica2, err := Open(context.Background(), Config{KV: kv, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	checkAllVersions(t, replica2, m)
}

// TestReadOnlyOpenBesideFlush pins the safe multi-AS deployment: a read-only
// Open beside a live writer's flush writes nothing, so it deletes nothing the
// flush wrote. Store A commits five versions; its flush is held just before
// the placement record's write — the chunk segments are written, the record
// and the root are not — while a second, read-only Open loads the same node,
// sees the five versions pending, and closes its own cluster, as the CLI's
// read commands do. Let go, the flush returns; every acknowledged version
// reads back byte for byte from A and from the next Open. (A writable second
// Open deletes the flush's segments as debris: ROADMAP item 28.)
func TestReadOnlyOpenBesideFlush(t *testing.T) {
	ctx := context.Background()
	kv, be := gatedCluster(t)
	st, err := Open(ctx, Config{KV: kv, ChunkCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]types.Record
	parent := types.InvalidVersion
	for i := 0; i < 5; i++ {
		puts := map[types.Key][]byte{}
		for j := 0; j < 4; j++ {
			puts[types.Key(fmt.Sprintf("doc-%02d", (3*i+j)%10))] = []byte(fmt.Sprintf("version %d's value of doc %d", i, j))
		}
		v, err := st.Commit(ctx, parent, Change{Puts: puts})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := st.GetVersionAll(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, got)
		parent = v
	}

	g := be.hold(TablePlacement, "batchput")
	flushed := make(chan error, 1)
	go func() { flushed <- st.Flush(ctx) }()
	g.reached(t, "the flush")
	readerKV, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1, NewBackend: func(int) (engine.Backend, error) { return sharedNode{be}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	reader, err := Open(ctx, Config{KV: readerKV, ReadOnly: true})
	if err != nil {
		t.Fatalf("a read-only Open beside the flush: %v", err)
	}
	if n, pending := reader.NumVersions(), reader.PendingVersions(); n != len(want) || pending != len(want) {
		t.Fatalf("the reader sees %d versions, %d pending; want %d, all pending", n, pending, len(want))
	}
	if err := readerKV.Close(); err != nil {
		t.Fatal(err)
	}
	be.open()
	within(t, "the flush once let go", func() error { return <-flushed })

	readBack := func(who string, s *Store) {
		t.Helper()
		for v := range want {
			got, _, err := s.GetVersionAll(ctx, types.VersionID(v))
			if err != nil {
				t.Fatalf("%s: version %d: %v", who, v, err)
			}
			sameRecords(t, fmt.Sprintf("%s: version %d", who, v), got, want[v])
		}
	}
	readBack("the writer", st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(ctx, Config{KV: kv})
	if err != nil {
		t.Fatalf("the next Open: %v", err)
	}
	if re.PendingVersions() != 0 {
		t.Fatalf("the next Open has %d versions pending; the flush placed them all", re.PendingVersions())
	}
	readBack("the next Open", re)
}

// sharedNode is a node handed to a second cluster: closing that cluster
// leaves the node to the first one, which still runs over it.
type sharedNode struct{ engine.Backend }

func (sharedNode) Close() error { return nil }
