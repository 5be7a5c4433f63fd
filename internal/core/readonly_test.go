package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

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

	replica, err := Load(context.Background(), Config{KV: kv, ReadOnly: true})
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
	replica2, err := Load(context.Background(), Config{KV: kv, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	checkAllVersions(t, replica2, m)
}
