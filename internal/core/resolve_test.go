package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"testing"

	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// resolveHarness drives a store and the test model side by side. Nothing
// flushes unless a step asks, so each case chooses which versions are placed.
type resolveHarness struct {
	t  *testing.T
	kv *kvstore.Store
	s  *Store
	m  *model
}

func newResolveHarness(t *testing.T) *resolveHarness {
	t.Helper()
	kv, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(context.Background(), Config{KV: kv, ChunkCapacity: 512})
	if err != nil {
		t.Fatal(err)
	}
	return &resolveHarness{t: t, kv: kv, s: s, m: newModel()}
}

// change puts each of puts, valued by key and the version it is put in, and
// deletes each of dels.
func (h *resolveHarness) change(puts []types.Key, dels []types.Key) Change {
	ch := Change{Puts: map[types.Key][]byte{}, Deletes: dels}
	for _, k := range puts {
		ch.Puts[k] = fmt.Appendf(nil, "%s@%d", k, h.s.NumVersions())
	}
	return ch
}

func (h *resolveHarness) commit(parent types.VersionID, puts []types.Key, dels ...types.Key) types.VersionID {
	h.t.Helper()
	ch := h.change(puts, dels)
	v, err := h.s.Commit(context.Background(), parent, ch)
	if err != nil {
		h.t.Fatalf("commit at %d: %v", parent, err)
	}
	h.m.commit(parent, ch, v)
	return v
}

// readd commits a merge of parent and from by CommitDelta: key k of parent
// gives way to the record from holds of it, which is re-added.
func (h *resolveHarness) readd(parent, from types.VersionID, k types.Key) types.VersionID {
	h.t.Helper()
	old, back := h.m.versions[parent][k], h.m.versions[from][k]
	v, err := h.s.CommitDelta(context.Background(), []types.VersionID{parent, from}, &types.Delta{
		Adds: []types.Record{back},
		Dels: []types.CompositeKey{old.CK},
	})
	if err != nil {
		h.t.Fatalf("merge of %d and %d: %v", parent, from, err)
	}
	next := maps.Clone(h.m.versions[parent])
	next[k] = back
	h.m.versions = append(h.m.versions, next)
	h.m.parents = append(h.m.parents, parent)
	return v
}

func (h *resolveHarness) flush() {
	h.t.Helper()
	if err := h.s.Flush(context.Background()); err != nil {
		h.t.Fatal(err)
	}
}

// reload replaces the store by one Load opens over the same cluster.
func (h *resolveHarness) reload() {
	h.t.Helper()
	re, err := Load(context.Background(), Config{KV: h.kv, ChunkCapacity: 512})
	if err != nil {
		h.t.Fatal(err)
	}
	h.s = re
}

// check compares every version with the model and validates the corpus: a
// delta that deletes a record its parent does not hold, or that leaves two
// records of one key, fails it.
func (h *resolveHarness) check() {
	h.t.Helper()
	checkAllVersions(h.t, h.s, h.m)
	if err := h.s.corpus.Validate(); err != nil {
		h.t.Fatal(err)
	}
}

// TestCommitResolvesTouchedKeys: a commit resolves the record each key it
// touches holds in its parent, over every shape a parent takes — placed;
// pending over a placed anchor, the key modified, deleted, deleted and put
// again, or re-added by a merge in the overlay; pending with no anchor; the
// first commit after Load; a non-tip version whose descendants rewrote the
// key. The commit's version must match the model, the corpus must validate,
// and a delete of a key the parent does not hold is a KeyNotFoundError.
func TestCommitResolvesTouchedKeys(t *testing.T) {
	const root = types.VersionID(0)
	keys := []types.Key{"a", "b", "c", "d"}
	// placedRoot commits the root and places it.
	placedRoot := func(h *resolveHarness) {
		h.commit(types.InvalidVersion, keys)
		h.flush()
	}
	cases := []struct {
		name    string
		build   func(h *resolveHarness) types.VersionID // the parent to commit at
		puts    []types.Key
		dels    []types.Key
		missing bool // the commit fails with a KeyNotFoundError
	}{
		{name: "placed", puts: []types.Key{"a", "e"}, dels: []types.Key{"b"},
			build: func(h *resolveHarness) types.VersionID { placedRoot(h); return root }},
		{name: "placed/deleted-twice", dels: []types.Key{"b", "b"}, missing: true,
			build: func(h *resolveHarness) types.VersionID { placedRoot(h); return root }},
		{name: "overlay/modified", puts: []types.Key{"a", "b"},
			build: func(h *resolveHarness) types.VersionID { placedRoot(h); return h.commit(root, []types.Key{"a"}) }},
		{name: "overlay/modified-then-deleted", dels: []types.Key{"a"},
			build: func(h *resolveHarness) types.VersionID { placedRoot(h); return h.commit(root, []types.Key{"a"}) }},
		{name: "overlay/deleted-then-put", puts: []types.Key{"b"},
			build: func(h *resolveHarness) types.VersionID { placedRoot(h); return h.commit(root, nil, "b") }},
		{name: "overlay/deleted-then-deleted", dels: []types.Key{"b"}, missing: true,
			build: func(h *resolveHarness) types.VersionID { placedRoot(h); return h.commit(root, nil, "b") }},
		{name: "overlay/deleted-put-again", puts: []types.Key{"b"},
			build: func(h *resolveHarness) types.VersionID {
				placedRoot(h)
				return h.commit(h.commit(root, nil, "b"), []types.Key{"b"})
			}},
		{name: "overlay/deleted-put-again-deleted", dels: []types.Key{"b"},
			build: func(h *resolveHarness) types.VersionID {
				placedRoot(h)
				return h.commit(h.commit(root, nil, "b"), []types.Key{"b"})
			}},
		{name: "overlay/re-added", puts: []types.Key{"a"},
			build: func(h *resolveHarness) types.VersionID {
				placedRoot(h)
				return h.readd(h.commit(root, []types.Key{"a"}), root, "a")
			}},
		{name: "overlay/re-added-deleted", dels: []types.Key{"a"},
			build: func(h *resolveHarness) types.VersionID {
				placedRoot(h)
				return h.readd(h.commit(root, []types.Key{"a"}), root, "a")
			}},
		{name: "no-anchor", puts: []types.Key{"a", "b"}, dels: []types.Key{"c"},
			build: func(h *resolveHarness) types.VersionID {
				return h.commit(h.commit(types.InvalidVersion, keys), []types.Key{"a"}, "b")
			}},
		{name: "no-anchor/deleted", dels: []types.Key{"b"}, missing: true,
			build: func(h *resolveHarness) types.VersionID {
				return h.commit(h.commit(types.InvalidVersion, keys), []types.Key{"a"}, "b")
			}},
		{name: "after-load/placed", puts: []types.Key{"a"}, dels: []types.Key{"b"},
			build: func(h *resolveHarness) types.VersionID {
				placedRoot(h)
				h.commit(root, []types.Key{"a"})
				h.reload()
				return root
			}},
		{name: "after-load/replayed", puts: []types.Key{"a"}, dels: []types.Key{"c"},
			build: func(h *resolveHarness) types.VersionID {
				placedRoot(h)
				v := h.commit(h.commit(root, []types.Key{"a"}), nil, "b")
				h.reload()
				return v
			}},
		{name: "non-tip/placed", puts: []types.Key{"a"}, dels: []types.Key{"b"},
			build: func(h *resolveHarness) types.VersionID {
				placedRoot(h)
				v := h.commit(root, []types.Key{"a"})
				h.commit(h.commit(v, []types.Key{"a"}, "b"), []types.Key{"b"})
				h.flush()
				return v
			}},
		{name: "non-tip/pending", puts: []types.Key{"a"}, dels: []types.Key{"b"},
			build: func(h *resolveHarness) types.VersionID {
				placedRoot(h)
				v := h.commit(root, []types.Key{"a"})
				h.commit(h.commit(v, []types.Key{"a"}, "b"), []types.Key{"b"})
				return v
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newResolveHarness(t)
			parent := tc.build(h)
			before := h.s.NumVersions()
			ch := h.change(tc.puts, tc.dels)
			v, err := h.s.Commit(context.Background(), parent, ch)
			if tc.missing {
				var nf *types.KeyNotFoundError
				if !errors.As(err, &nf) {
					t.Fatalf("commit at %d: err = %v, want a KeyNotFoundError", parent, err)
				}
				if h.s.NumVersions() != before {
					t.Fatalf("refused commit grew the graph: %d → %d", before, h.s.NumVersions())
				}
				h.check()
				return
			}
			if err != nil {
				t.Fatalf("commit at %d: %v", parent, err)
			}
			h.m.commit(parent, ch, v)
			h.check()
			h.flush()
			h.check()
		})
	}
}
