package lsm

// The engine.HashRanger implementation: anti-entropy digests over the
// merged (memtable + the table's run) view, incremental where cheap. A full
// HashTree sweep costs one merged scan of the table — the same walk as
// Scan — so the result is memoized per (table, fanout) at the table's
// logical-content generation (run.gen, bumped by every put/delete applied
// to that table and by nothing else; flush, merge and retirement preserve
// logical content, so a digest survives them, and so do the digests of
// every other table). Repeated anti-entropy rounds over an unchanged table
// therefore cost a map lookup, and the memoized reply reports Bytes = 0:
// nothing was hashed.

import (
	"context"

	"rstore/internal/engine"
	"rstore/internal/types"
)

type hashMemoEntry struct {
	gen    int64
	digest engine.TreeDigest
}

// HashTree digests a table into a fanout-bucket hash tree
// (engine.HashRanger), serving repeats from the generation-keyed memo.
func (b *Backend) HashTree(ctx context.Context, table string, fanout int) (engine.TreeDigest, error) {
	if err := engine.CheckHashFanout(fanout); err != nil {
		return engine.TreeDigest{}, err
	}
	if err := ctx.Err(); err != nil {
		return engine.TreeDigest{}, err
	}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return engine.TreeDigest{}, types.ErrClosed
	}
	r := b.runs[table]
	var gen int64
	if r != nil {
		gen = r.gen
		if e, ok := r.memo[fanout]; ok && e.gen == gen {
			out := engine.TreeDigest{
				Root:   e.digest.Root,
				Leaves: append([]engine.LeafDigest(nil), e.digest.Leaves...),
				// A memo hit hashed nothing.
			}
			b.mu.RUnlock()
			return out, nil
		}
	}
	th := engine.NewTreeHasher(fanout)
	err := b.scanLocked(ctx, table, func(userKey string, value []byte) bool {
		th.Add(userKey, value)
		return true
	})
	b.mu.RUnlock()
	if err != nil {
		return engine.TreeDigest{}, err
	}
	d := th.Digest()
	if r == nil {
		// Never written: there is no run to hang a memo on, and nothing to
		// sweep next time either.
		return d, nil
	}
	// Install under the write lock only if no mutation landed meanwhile;
	// gen is immutable while any read lock is held, so the captured value
	// identifies exactly the state that was scanned. (A Reset replaces the
	// run itself.)
	b.mu.Lock()
	if !b.closed && b.runs[table] == r && r.gen == gen {
		if r.memo == nil {
			r.memo = map[int]hashMemoEntry{}
		}
		r.memo[fanout] = hashMemoEntry{gen: gen, digest: d}
	}
	b.mu.Unlock()
	// The memo keeps the original leaf slice; hand the caller its own.
	out := d
	out.Leaves = append([]engine.LeafDigest(nil), d.Leaves...)
	return out, nil
}

// HashRange lists one bucket's keys with their entry hashes
// (engine.HashRanger); the merged scan is key-ordered, so the result is
// already ascending.
func (b *Backend) HashRange(ctx context.Context, table string, fanout, bucket int) ([]engine.KeyHash, error) {
	if err := engine.CheckHashBucket(fanout, bucket); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, types.ErrClosed
	}
	var out []engine.KeyHash
	err := b.scanLocked(ctx, table, func(userKey string, value []byte) bool {
		if engine.BucketOf(userKey, fanout) == bucket {
			out = append(out, engine.KeyHash{Key: userKey, Hash: engine.EntryHash(userKey, value)})
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
