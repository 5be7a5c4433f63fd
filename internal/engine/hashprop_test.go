// Property tests for the hash-tree seam: the anti-entropy loop's
// correctness rests on three invariants that no example-based test can pin
// down — (a) two backends digest equal iff their logical content is equal,
// regardless of the operation histories that produced it; (b) when they
// differ, the unequal leaves cover exactly the differing keys, so the
// drill-down phase never misses a divergence and never fetches a clean
// bucket; (c) a durable backend's digest survives Close/reopen, so a
// restarted replica doesn't look diverged to its peers.
package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
	"rstore/internal/engine/memory"
)

// randMutations applies n random put/delete/overwrite operations to b and
// returns the resulting logical content. Keys are drawn from a small pool
// so overwrites and delete-then-reput sequences actually happen.
func randMutations(t *testing.T, rng *rand.Rand, b engine.Backend, table string, n int) map[string][]byte {
	t.Helper()
	ctx := context.Background()
	content := map[string][]byte{}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%03d", rng.Intn(40))
		switch {
		case rng.Intn(4) == 0 && len(content) > 0:
			if err := b.Delete(ctx, table, key); err != nil {
				t.Fatal(err)
			}
			delete(content, key)
		default:
			val := make([]byte, rng.Intn(64))
			rng.Read(val)
			if err := b.Put(ctx, table, key, val); err != nil {
				t.Fatal(err)
			}
			content[key] = val
		}
	}
	return content
}

// replay writes content to b through a shuffled, redundant history: every
// key is first written with a garbage value, a random subset is deleted and
// re-put, and the final values land in random order. The logical outcome is
// identical to content; the physical history shares nothing with the one
// that produced it.
func replay(t *testing.T, rng *rand.Rand, b engine.Backend, table string, content map[string][]byte) {
	t.Helper()
	ctx := context.Background()
	keys := make([]string, 0, len(content))
	for k := range content {
		keys = append(keys, k)
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		if err := b.Put(ctx, table, k, []byte("garbage-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		if rng.Intn(2) == 0 {
			if err := b.Delete(ctx, table, k); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Put(ctx, table, k, content[k]); err != nil {
			t.Fatal(err)
		}
	}
}

// diffKeys returns the keys whose values differ (or exist on one side only).
func diffKeys(a, b map[string][]byte) map[string]bool {
	d := map[string]bool{}
	for k, v := range a {
		if bv, ok := b[k]; !ok || string(bv) != string(v) {
			d[k] = true
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			d[k] = true
		}
	}
	return d
}

func TestHashTreeProperties(t *testing.T) {
	const fanout = 16
	ctx := context.Background()
	forEachBackend(t, func(t *testing.T, b engine.Backend) {
		hr := hashRanger(t, b)
		other := memory.New() // reference replica
		defer other.Close()

		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// A fresh table per round: untracked leftovers from a previous
			// round's history would otherwise alias into the comparison.
			table := fmt.Sprintf("prop-%d", seed)

			// (a) history-independence: the same logical content reached
			// through a disjoint operation history digests identically.
			content := randMutations(t, rng, b, table, 120)
			replay(t, rng, other, table, content)
			db, err := hr.HashTree(ctx, table, fanout)
			if err != nil {
				t.Fatal(err)
			}
			do, err := other.HashTree(ctx, table, fanout)
			if err != nil {
				t.Fatal(err)
			}
			if db.Root != do.Root {
				t.Fatalf("seed %d: equal content, unequal roots %x vs %x", seed, db.Root, do.Root)
			}

			// Diverge the reference in a random handful of ways: value
			// flips, one-sided deletes, one-sided extra keys.
			refContent := map[string][]byte{}
			for k, v := range content {
				refContent[k] = v
			}
			for i := 0; i < 1+rng.Intn(6); i++ {
				switch k := fmt.Sprintf("key-%03d", rng.Intn(40)); rng.Intn(3) {
				case 0:
					if err := other.Put(ctx, table, k, []byte("diverged")); err != nil {
						t.Fatal(err)
					}
					refContent[k] = []byte("diverged")
				case 1:
					if err := other.Delete(ctx, table, k); err != nil {
						t.Fatal(err)
					}
					delete(refContent, k)
				case 2:
					extra := fmt.Sprintf("extra-%03d", rng.Intn(40))
					if err := other.Put(ctx, table, extra, []byte("one-sided")); err != nil {
						t.Fatal(err)
					}
					refContent[extra] = []byte("one-sided")
				}
			}
			want := diffKeys(content, refContent)
			do, err = other.HashTree(ctx, table, fanout)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				if db.Root != do.Root {
					t.Fatalf("seed %d: divergence cancelled out but roots differ", seed)
				}
			} else if db.Root == do.Root {
				t.Fatalf("seed %d: %d differing keys but equal roots", seed, len(want))
			}

			// (b) unequal leaves cover exactly the differing keys: every
			// differing key's bucket is unequal, and drilling every unequal
			// bucket recovers the full difference and nothing else.
			wantBuckets := map[int]bool{}
			for k := range want {
				wantBuckets[engine.BucketOf(k, fanout)] = true
			}
			got := map[string]bool{}
			for i := 0; i < fanout; i++ {
				if db.Leaves[i] == do.Leaves[i] {
					if wantBuckets[i] {
						t.Fatalf("seed %d: bucket %d holds differing keys but leaves are equal", seed, i)
					}
					continue
				}
				if !wantBuckets[i] {
					t.Fatalf("seed %d: leaves differ in bucket %d but no key differs there", seed, i)
				}
				lb, err := hr.HashRange(ctx, table, fanout, i)
				if err != nil {
					t.Fatal(err)
				}
				lo, err := other.HashRange(ctx, table, fanout, i)
				if err != nil {
					t.Fatal(err)
				}
				hashes := map[string]uint64{}
				for _, kh := range lb {
					hashes[kh.Key] = kh.Hash
				}
				for _, kh := range lo {
					if h, ok := hashes[kh.Key]; ok && h == kh.Hash {
						delete(hashes, kh.Key) // agrees on both sides
					} else {
						got[kh.Key] = true
					}
				}
				for k := range hashes {
					got[k] = true
				}
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d: drill-down found %d differing keys, want %d", seed, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("seed %d: drill-down missed differing key %q", seed, k)
				}
			}
		}
	})
}

// TestHashTreeReopenStability pins (c): a durable backend's digest is a
// function of its logical content, not of in-memory state — after
// Close/reopen (log replay, SSTable reload, memo cache cold) the tree must
// come back bit-identical, or every restart would trigger a spurious
// anti-entropy repair storm.
func TestHashTreeReopenStability(t *testing.T) {
	const table = "stable"
	const fanout = 32
	ctx := context.Background()
	// Tiny memtable so the content spans WAL, flushed SSTables, and merged
	// SSTables when it comes back.
	open := func(dir string) (engine.Backend, error) {
		return lsm.Open(dir, lsm.Options{MemtableBytes: 512})
	}
	t.Run("lsm", func(t *testing.T) {
		dir := t.TempDir()
		b, err := open(dir)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		randMutations(t, rng, b, table, 200)
		before, err := b.(engine.HashRanger).HashTree(ctx, table, fanout)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}

		b, err = open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		after, err := b.(engine.HashRanger).HashTree(ctx, table, fanout)
		if err != nil {
			t.Fatal(err)
		}
		if after.Root != before.Root {
			t.Fatalf("root changed across reopen: %x vs %x", after.Root, before.Root)
		}
		for i := range before.Leaves {
			if after.Leaves[i] != before.Leaves[i] {
				t.Fatalf("leaf %d changed across reopen: %+v vs %+v", i, after.Leaves[i], before.Leaves[i])
			}
		}
	})
}
