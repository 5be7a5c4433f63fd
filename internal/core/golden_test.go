package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"

	"rstore/internal/corpus"
	"rstore/internal/kvstore"
	"rstore/internal/types"
	"rstore/internal/workload"
)

// goldenCorpus is the seeded dataset the golden digests are taken over:
// branchy, with deletions, insertions and merges (so records re-enter through
// secondary parents and a flush sees already-placed adds).
func goldenCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	c, err := workload.Generate(workload.Spec{
		Name: "golden", Versions: 30, AvgDepth: 6, RecordsPerVersion: 40,
		UpdatePct: 0.2, Update: workload.RandomUpdate, RecordSize: 96,
		Pd: 0.1, MergeProb: 0.15, Seed: 1802,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// storedDigest hashes every (table, key, value) placement persists — chunk
// payloads, placement records, the root — in sorted order.
func storedDigest(t *testing.T, kv *kvstore.Store) string {
	t.Helper()
	h := sha256.New()
	put := func(s string) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	for _, table := range []string{TableChunks, TablePlacement, TableMeta} {
		var keys []string
		values := map[string]string{}
		if err := kv.Scan(context.Background(), table, func(key string, value []byte) bool {
			keys = append(keys, key)
			values[key] = string(value)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sort.Strings(keys)
		for _, key := range keys {
			put(table)
			put(key)
			put(values[key])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenStoredBytes pins what placement writes, byte for byte: the chunk
// payloads, placement records and root of a bulk load (sub-chunk k = 1 and 3)
// and of a commit-by-commit replay with online batches of four. A refactor of
// the layout or publish code must leave every digest as it is; a format
// change must say so by changing them.
func TestGoldenStoredBytes(t *testing.T) {
	ctx := context.Background()
	open := func(cfg Config) (*Store, *kvstore.Store) {
		t.Helper()
		kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg.KV, cfg.ChunkCapacity = kv, 2048
		st, err := Open(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st, kv
	}
	check := func(name string, kv *kvstore.Store, want string) {
		t.Helper()
		if got := storedDigest(t, kv); got != want {
			t.Errorf("%s: stored bytes digest %s, want %s", name, got, want)
		}
	}

	for _, tc := range []struct {
		name string
		k    int
		want string
	}{
		{"bulkload-k1", 1, "64dfd00b9dce38094309d973bdac5a6532323158e1ecdad4147ebf5c96d2f136"},
		{"bulkload-k3", 3, "5949cfa511ac745cbff2cafa80d9c11e9f3fb457b2123773fefac59a2abc131d"},
	} {
		st, kv := open(Config{SubChunkK: tc.k})
		if err := st.BulkLoad(ctx, goldenCorpus(t)); err != nil {
			t.Fatal(err)
		}
		check(tc.name, kv, tc.want)
	}

	c := goldenCorpus(t)
	st, kv := open(Config{BatchSize: 4})
	for v := types.VersionID(0); int(v) < c.NumVersions(); v++ {
		delta := &types.Delta{}
		for _, id := range c.Adds(v) {
			delta.Adds = append(delta.Adds, c.Record(id))
		}
		for _, id := range c.Dels(v) {
			delta.Dels = append(delta.Dels, c.Record(id).CK)
		}
		parents := c.Graph().Parents(v)
		if len(parents) == 0 {
			parents = []types.VersionID{types.InvalidVersion}
		}
		if got, err := st.CommitDelta(ctx, parents, delta); err != nil || got != v {
			t.Fatalf("replay of version %d: got %d, %v", v, got, err)
		}
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Re-pinned in PR 19 (was aa139efc…2d42): a batch larger than one chunk
	// is now partitioned as two instances, open records then closed ones, so
	// which records share a chunk — and with it payloads and slot bitmaps —
	// changed for online batches. The format did not, and the bulk-load
	// digests above are the proof that the offline path did not move.
	check("replay-batch4", kv, "c0f37e61906eb211893d1e7bff4fd63f2b32b3ca7c2a4b4c992db96fdddcc34a")
}
