package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"rstore/internal/chunk"
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

// membershipDigest hashes which records each chunk holds — per chunk id, the
// sorted set of its composite keys — and nothing of how they are laid out
// inside it. It reads only the record → chunk catalog, so it is computed the
// same way on either side of a change to the stored format.
func membershipDigest(st *Store) string {
	perChunk := make([][]string, st.layout.NumChunks())
	for rec := 0; rec < st.corpus.NumRecords(); rec++ {
		if loc := st.layout.Loc(uint32(rec)); loc.Chunk != chunk.NoChunk {
			ck := st.corpus.Record(uint32(rec)).CK
			perChunk[loc.Chunk] = append(perChunk[loc.Chunk], fmt.Sprintf("%q@%d", string(ck.Key), ck.Version))
		}
	}
	h := sha256.New()
	for cid, cks := range perChunk {
		sort.Strings(cks)
		fmt.Fprintf(h, "chunk %d: %d\n", cid, len(cks))
		for _, ck := range cks {
			fmt.Fprintln(h, ck)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenStoredBytes pins what placement writes, byte for byte, in two
// halves — the chunk segments, and the placement records plus the root — of a
// bulk load (sub-chunk k = 1 and 3) and of a commit-by-commit replay with
// online batches of four. A refactor of the layout or publish code must leave
// every digest as it is; a format change must say so by changing them.
//
// Beside them it pins which records each chunk holds (membershipDigest). Those
// three digests were taken on the commit before segmented chunks (root v4, one
// payload per chunk, slots in assignment order): a change of the stored format
// re-pins the byte digests and must leave these alone — the partitioner is
// charged what it was charged, so spans and chunk ids do not move.
//
// The framing a chunk spends per record is bounded too: key-ordered,
// front-coded segments take at most 10 bytes beyond the value for a
// single-record item (5.7–5.9 on this corpus, segment headers included; one
// payload per chunk with every key and item header spelled out took 14.1).
//
// The placement log must also stay a small share of the chunk bytes: it holds
// parent edges and, per version, the slots in which it differs from its tree
// parent — neither whole bitmaps nor a version's composite keys, which the
// diffs and the payloads already determine, may creep back in. On these three
// stores (chunks of some twenty 96-byte records, where a diff of three slots
// costs as much as in a chunk of four thousand) log and root are 4.0 %, 6.4 %
// and 4.8 % of the chunk bytes; format v5, which wrote every bitmap whole, had
// 7.9 %, 13.5 % and 8.9 %, and format v3, which also wrote the keys, 25.5 %,
// 40.8 % and 26.4 % of chunks that were 8 % larger.
func TestGoldenStoredBytes(t *testing.T) {
	ctx := context.Background()
	const maxLogShare = 0.07
	check := func(name string, st *Store, kv *kvstore.Store, wantChunks, wantLog, wantMembers string) {
		t.Helper()
		chunks, chunkBytes := storedDigest(t, kv, TableChunks)
		if chunks != wantChunks {
			t.Errorf("%s: chunk segments digest %s, want %s", name, chunks, wantChunks)
		}
		if members := membershipDigest(st); members != wantMembers {
			t.Errorf("%s: chunk membership digest %s, want %s", name, members, wantMembers)
		}
		if st.cfg.SubChunkK == 1 {
			valueBytes := 0
			for rec := 0; rec < st.corpus.NumRecords(); rec++ {
				valueBytes += len(st.corpus.Record(uint32(rec)).Value)
			}
			if framing := float64(chunkBytes-valueBytes) / float64(st.corpus.NumRecords()); framing > 10 {
				t.Errorf("%s: %.1f bytes of framing per single-record item, want at most 10", name, framing)
			}
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
		name                     string
		k                        int
		chunks, logRoot, members string
	}{
		{"bulkload-k1", 1, "c58fb72aa37fe5e74fca03359854750862a417ce987c07c09feccc3ca171110d", "fb6fec2fbf3ca6598f7f4668297e92e682a5c90d4c97750fdb65066851126244", "490b74fc04714589ab78f283032bf8e666244678b4622d06ceebd3db9c9b7449"},
		{"bulkload-k3", 3, "f0f1916d4b848495015fa5c44c0054ff36b7c22bcd5918c41e1b16d98f8acbde", "c9869358bfa35c502896f62596b0956c4d1cad4445a4e407a0ffa9e9e97982d2", "53036a4c05f08cd70eeba15ae6b274bbdd970b9d9c58e4af9deb8f82ec2428ce"},
	} {
		st, kv := openGolden(t, Config{SubChunkK: tc.k})
		if err := st.BulkLoad(ctx, goldenCorpus(t)); err != nil {
			t.Fatal(err)
		}
		check(tc.name, st, kv, tc.chunks, tc.logRoot, tc.members)
	}

	st, kv := openGolden(t, Config{BatchSize: 4})
	replayGolden(t, st)
	check("replay-batch4", st, kv, "a4b95c03d180b241fd062569f4a480aa7c86950d0e36a090aa4bcd55c177a107", "fab25c5621d4dd441b90341004af44f57f1837d2dd2da0e130f622f980b10572",
		"152a3547b1e2aa8e838538e57c0a4ccee7d8f647073ea2e362a79f12625ea8d2")
}
