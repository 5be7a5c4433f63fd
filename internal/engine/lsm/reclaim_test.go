package lsm

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rstore/internal/engine"
)

// runLiveShare reports table's run: its table count and the live and file
// bytes of its tables, live clamped per table as CompactionStats clamps it.
func runLiveShare(b *Backend, table string) (tables []*sstable, live, size int64) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	r := b.runs[table]
	if r == nil {
		return nil, 0, 0
	}
	for _, t := range r.tables {
		live += min(max(t.live, 0), t.size)
		size += t.size
	}
	return slices.Clone(r.tables), live, size
}

// TestTierReclaimsHalfDeadRuns runs random overwrites and deletes — 20 000
// keys, 4 000 write calls: two in three a BatchPut of up to 50 random keys
// with ≈ 210-byte values, the third 20 Deletes — at three memtable sizes.
// Nothing but the engine's own write calls and its worker runs. After every
// call that set off the tier loop (once the worker is done, the run has a
// table it did not have: a flush, an ingest or a merge), the written run is
// one table or at least half live.
func TestTierReclaimsHalfDeadRuns(t *testing.T) {
	for _, memtable := range []int64{64 << 10, 1 << 20, 4 << 20} {
		t.Run(fmt.Sprint(memtable>>10, "KiB"), func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			b := openT(t, t.TempDir(), Options{MemtableBytes: memtable})
			defer b.Close()
			rng := rand.New(rand.NewSource(memtable))
			key := func() string { return fmt.Sprintf("key-%05d", rng.Intn(20000)) }
			value := make([]byte, 220)
			checked := 0
			for call := 0; call < 4000; call++ {
				before, _, _ := runLiveShare(b, "t")
				if call%3 == 2 {
					for i := 0; i < 20; i++ {
						if err := b.Delete(ctx, "t", key()); err != nil {
							t.Fatal(err)
						}
					}
				} else {
					batch := make([]engine.Entry, 50)
					for i := range batch {
						rng.Read(value)
						batch[i] = engine.Entry{Key: key(), Value: append([]byte(nil), value[:200+rng.Intn(21)]...)}
					}
					if err := b.BatchPut(ctx, "t", batch); err != nil {
						t.Fatal(err)
					}
				}
				settleT(t, b)
				after, live, size := runLiveShare(b, "t")
				if !slices.ContainsFunc(after, func(t *sstable) bool { return !slices.Contains(before, t) }) {
					continue
				}
				checked++
				if len(after) > 1 && 2*live < size {
					t.Fatalf("call %d: a run of %d tables is %.2f live after its tier loop", call, len(after), float64(live)/float64(size))
				}
			}
			if checked == 0 {
				t.Fatal("no call ran the tier loop")
			}
			tables, live, size := runLiveShare(b, "t")
			t.Logf("%d calls ran the tier loop; the run ends as %d tables, %.2f live", checked, len(tables), float64(live)/float64(size))
			checkRunInvariants(t, b)
		})
	}
}

// TestOneTableRunIsNotRemerged: a run of one table is never merged again,
// however dead it is — a merge of it would yield one table again, and the
// tier loop would not end.
func TestOneTableRunIsNotRemerged(t *testing.T) {
	ctx := context.Background()
	b := openT(t, t.TempDir(), Options{MemtableBytes: 1 << 20})
	defer b.Close()
	value := make([]byte, 200)
	var batch []engine.Entry
	for i := 0; i < 100; i++ {
		batch = append(batch, engine.Entry{Key: fmt.Sprintf("k%03d", i), Value: value})
	}
	if err := b.BatchPut(ctx, "t", batch); err != nil {
		t.Fatal(err)
	}
	flushT(t, b)
	// Deletes of all but one key leave the one table nearly all dead.
	for i := 1; i < 100; i++ {
		if err := b.Delete(ctx, "t", fmt.Sprintf("k%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	tables, live, size := runLiveShare(b, "t")
	if len(tables) != 1 || 2*live >= size {
		t.Fatalf("want one mostly dead table, got %d tables %d/%d live", len(tables), live, size)
	}
	if err := b.tierCompact(ctx); err != nil {
		t.Fatal(err)
	}
	if after, _, _ := runLiveShare(b, "t"); len(after) != 1 || after[0] != tables[0] {
		t.Fatalf("the one table was merged: run %v", runFiles(b, "t"))
	}
	if b.rewritten != 0 {
		t.Fatalf("merges wrote %d bytes", b.rewritten)
	}
}
