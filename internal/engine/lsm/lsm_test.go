package lsm

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestGetSeesLatestAcrossStructuralChanges drives the sequences that would
// expose a stale read: read-then-overwrite-then-read, read-then-delete and
// a whole-run merge between reads. A tiny memtable keeps data flowing through
// SSTables so reads take the full table path through the block cache.
func TestGetSeesLatestAcrossStructuralChanges(t *testing.T) {
	ctx := context.Background()
	b := openT(t, t.TempDir(), Options{MemtableBytes: 1 << 10})
	defer b.Close()

	get := func(key string) (string, bool) {
		t.Helper()
		v, ok, err := b.Get(ctx, "t", key)
		if err != nil {
			t.Fatal(err)
		}
		return string(v), ok
	}

	// Each key is read twice so the second Get finds its block cached.
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("k%02d", i)
		if err := b.Put(ctx, "t", k, []byte(k+" v0")); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 32; i++ {
			k := fmt.Sprintf("k%02d", i)
			if v, ok := get(k); !ok || v != k+" v0" {
				t.Fatalf("pass %d: %s = %q (ok=%v)", pass, k, v, ok)
			}
		}
	}

	// Overwrite a key just read: the very next read must see the new value.
	if err := b.Put(ctx, "t", "k00", []byte("k00 v1")); err != nil {
		t.Fatal(err)
	}
	if v, _ := get("k00"); v != "k00 v1" {
		t.Fatalf("after overwrite: %q", v)
	}

	// A whole-run merge moves every row into a single table (new
	// block-cache identities); logical content is unchanged.
	mergeRunT(t, b, "t")
	if files := runFiles(b, "t"); len(files) != 1 {
		t.Fatalf("after the merge the run is %v", files)
	}
	if v, _ := get("k00"); v != "k00 v1" {
		t.Fatalf("after the merge: %q", v)
	}

	// Delete a key whose block is cached: the tombstone must win.
	if v, ok := get("k01"); !ok || v != "k01 v0" { // ensure its block is cached
		t.Fatalf("precondition: %q ok=%v", v, ok)
	}
	if err := b.Delete(ctx, "t", "k01"); err != nil {
		t.Fatal(err)
	}
	if v, ok := get("k01"); ok {
		t.Fatalf("after delete: got %q, want miss", v)
	}
}

// TestGetSeesLatestUnderRacingWriter hammers one hot key set with parallel
// readers and a writer that flushes and merges underneath them; under
// -race this proves the read path shares nothing unsynchronized with the
// write path, and under any mode that readers never observe a torn value
// (every observed value must be one the writer actually wrote).
func TestGetSeesLatestUnderRacingWriter(t *testing.T) {
	ctx := context.Background()
	b := openT(t, t.TempDir(), Options{MemtableBytes: 2 << 10})
	defer b.Close()

	const keys = 8
	for i := 0; i < keys; i++ {
		if err := b.Put(ctx, "t", fmt.Sprintf("h%d", i), []byte(fmt.Sprintf("h%d rev 0", i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("h%d", i%keys)
				v, ok, err := b.Get(ctx, "t", k)
				if err != nil || !ok {
					t.Errorf("get %s: ok=%v err=%v", k, ok, err)
					return
				}
				var kk string
				var rev int
				if _, err := fmt.Sscanf(string(v), "%s rev %d", &kk, &rev); err != nil || kk != k {
					t.Errorf("get %s: torn value %q", k, v)
					return
				}
			}
		}()
	}
	for rev := 1; rev <= 200; rev++ {
		for i := 0; i < keys; i++ {
			if err := b.Put(ctx, "t", fmt.Sprintf("h%d", i), []byte(fmt.Sprintf("h%d rev %d", i, rev))); err != nil {
				t.Fatal(err)
			}
		}
		if rev%50 == 0 {
			mergeRunT(t, b, "t")
		}
	}
	close(stop)
	wg.Wait()
}

// TestBlockCacheOverShardBlock pins what the cache does with the values the
// engines actually serve: a chunk-sized block larger than a whole shard is
// admitted alone rather than refused, and the next insert into that shard
// evicts it, returning the shard to its budget.
func TestBlockCacheOverShardBlock(t *testing.T) {
	c := NewBlockCache(cacheShards * 1024) // 1 KiB per shard
	// Three block offsets of table 7 that land in one shard.
	s := c.shard(cacheKey{7, 0})
	offs := []int64{0}
	for off := int64(1); len(offs) < 3; off++ {
		if c.shard(cacheKey{7, off}) == s {
			offs = append(offs, off)
		}
	}

	small := make([]byte, 400)
	c.put(7, offs[0], small)
	big := make([]byte, 3000)
	c.put(7, offs[1], big)
	if got, ok := c.get(7, offs[1]); !ok || len(got) != len(big) {
		t.Fatalf("over-shard block not admitted: ok=%v len=%d", ok, len(got))
	}
	if _, ok := c.get(7, offs[0]); ok {
		t.Fatal("over-shard block did not evict the older entry")
	}
	if s.ll.Len() != 1 || s.size != int64(len(big)) {
		t.Fatalf("over-shard block not alone: %d entries, %d bytes", s.ll.Len(), s.size)
	}

	c.put(7, offs[2], small)
	if _, ok := c.get(7, offs[1]); ok {
		t.Fatal("next put did not evict the over-shard block")
	}
	if _, ok := c.get(7, offs[2]); !ok {
		t.Fatal("entry that evicted the over-shard block is missing")
	}
	if s.size > s.cap || s.size != int64(len(small)) {
		t.Fatalf("shard size %d after eviction, cap %d", s.size, s.cap)
	}
}

// TestBlockCacheSharedAcrossBackends hands one cache to two backends that
// hold different values under the same (table, key): table identities are
// process-unique, so neither may ever be served the other's block.
func TestBlockCacheSharedAcrossBackends(t *testing.T) {
	ctx := context.Background()
	cache := NewBlockCache(1 << 20)
	var bs [2]*Backend
	for n := range bs {
		bs[n] = openT(t, t.TempDir(), Options{Cache: cache})
		defer bs[n].Close()
		for i := 0; i < 64; i++ {
			k := fmt.Sprintf("k%02d", i)
			if err := bs[n].Put(ctx, "t", k, []byte(fmt.Sprintf("node%d %s", n, k))); err != nil {
				t.Fatal(err)
			}
		}
		// Reads below come from tables.
		flushT(t, bs[n])
	}
	for pass := 0; pass < 2; pass++ { // second pass is all cache hits
		for i := 0; i < 64; i++ {
			k := fmt.Sprintf("k%02d", i)
			for n, b := range bs {
				v, ok, err := b.Get(ctx, "t", k)
				if err != nil || !ok || string(v) != fmt.Sprintf("node%d %s", n, k) {
					t.Fatalf("pass %d node %d %s: %q ok=%v err=%v", pass, n, k, v, ok, err)
				}
			}
		}
	}
	var cached int64
	for i := range cache.shards {
		cached += cache.shards[i].size
	}
	if cached == 0 {
		t.Fatal("reads did not go through the shared cache")
	}
}

// TestDirectoryLocked: two live backends on one directory would append to
// the same logs with independent offsets and shred committed records; the
// second open is refused until the first closes.
func TestDirectoryLocked(t *testing.T) {
	dir := t.TempDir()
	b := openT(t, dir, Options{})
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second open of a live directory succeeded")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := openT(t, dir, Options{}).Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteMissingWritesNothing: deleting a key its table does not hold,
// or from a table that holds nothing, appends nothing to any log.
func TestDeleteMissingWritesNothing(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b := openT(t, dir, Options{})
	defer b.Close()
	if err := b.Put(ctx, "t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := diskBytes(t, dir)
	for _, table := range []string{"t", "other"} {
		if err := b.Delete(ctx, table, "never-existed"); err != nil {
			t.Fatal(err)
		}
	}
	if got := diskBytes(t, dir); got != before {
		t.Fatalf("no-op deletes grew the logs from %d to %d bytes", before, got)
	}
}
