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
func goldenCorpus(t testing.TB) *corpus.Corpus {
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

// openGolden opens an empty store with the golden tests' small chunks over a
// one-node cluster of its own.
func openGolden(t testing.TB, cfg Config) (*Store, *kvstore.Store) {
	t.Helper()
	ctx := context.Background()
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

// replayGolden commits the golden corpus into st version by version, as the
// deltas a client would send, and flushes what is left pending.
func replayGolden(t testing.TB, st *Store) {
	t.Helper()
	ctx := context.Background()
	c := goldenCorpus(t)
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
}

// storedDigest hashes every (table, key, value) of the given tables, in sorted
// order, and counts the value bytes.
func storedDigest(t *testing.T, kv *kvstore.Store, tables ...string) (string, int) {
	t.Helper()
	h := sha256.New()
	put := func(s string) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	size := 0
	for _, table := range tables {
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
			size += len(values[key])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), size
}

// TestGoldenStoredBytes pins what placement writes, byte for byte, in two
// halves — the chunk payloads, and the placement records plus the root — of a
// bulk load (sub-chunk k = 1 and 3) and of a commit-by-commit replay with
// online batches of four. A refactor of the layout or publish code must leave
// every digest as it is; a format change must say so by changing them.
//
// The placement log must also stay a small share of the chunk bytes: it holds
// parent edges and slot bitmaps only, and a version's composite keys — which
// the bitmaps and the payloads already determine — must not creep back in.
// On these three stores (tiny chunks, 96-byte records) log and root are 7.3 %,
// 11.9 % and 8.2 % of the chunk bytes; format v3, which wrote the keys, had
// 25.5 %, 40.8 % and 26.4 %.
func TestGoldenStoredBytes(t *testing.T) {
	ctx := context.Background()
	const maxLogShare = 0.15
	check := func(name string, kv *kvstore.Store, wantChunks, wantLog string) {
		t.Helper()
		chunks, chunkBytes := storedDigest(t, kv, TableChunks)
		if chunks != wantChunks {
			t.Errorf("%s: chunk payloads digest %s, want %s", name, chunks, wantChunks)
		}
		log, logBytes := storedDigest(t, kv, TablePlacement, TableMeta)
		if log != wantLog {
			t.Errorf("%s: placement log and root digest %s, want %s", name, log, wantLog)
		}
		if share := float64(logBytes) / float64(chunkBytes); share > maxLogShare {
			t.Errorf("%s: placement log and root are %d bytes, %.1f %% of the %d chunk bytes; at most %.0f %%",
				name, logBytes, 100*share, chunkBytes, 100*maxLogShare)
		}
	}

	for _, tc := range []struct {
		name            string
		k               int
		chunks, logRoot string
	}{
		{"bulkload-k1", 1, "af4b5c8ed3677327e2e5f9b8b56ee447816fd1694ae53a59cae79633f699320f", "c82f7048916e74f94b89433bb17619bcb20ef02f7e00e9042b90ca9a879eb075"},
		{"bulkload-k3", 3, "c4d2d6c32fdc70908df2a48e8b1f706c80f10dc56fe83a819c0b3dec30e5fe0a", "779b0246bcf5932c1a87f2f897261bc1b5ea2819079f8f3e0fd602267dfe62e5"},
	} {
		st, kv := openGolden(t, Config{SubChunkK: tc.k})
		if err := st.BulkLoad(ctx, goldenCorpus(t)); err != nil {
			t.Fatal(err)
		}
		check(tc.name, kv, tc.chunks, tc.logRoot)
	}

	st, kv := openGolden(t, Config{BatchSize: 4})
	replayGolden(t, st)
	check("replay-batch4", kv, "3453b0db2e61e258bf9ec97aee679aba819040e1e8a417ca59ee710b1cbe586c", "da2c356fc609e7eec17c4177a82f2b5a7b26c581a4ddb71a1b3626a643ef0f26")
}
