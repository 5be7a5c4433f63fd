package engine

import "context"

// The absent-seam rule, written once. A Backend's optional extensions
// (MultiGetter, Compactor, HashRanger) are discovered by type
// assertion; the holders of a bare Backend — a kvstore node, the engined
// dispatch loop — go through the functions below instead of asserting
// themselves, so "the seam is missing" means the same thing on every
// path: MultiGet degrades to one Get per key, the others answer with
// their ErrNo* sentinel. None of the sentinels matches ErrUnavailable: the
// backend was reached, it just cannot do that. (engined needs no MultiGet
// rule: it serves a batch key by key through Get whatever the backend.)

// MultiGet reads keys from table in one MultiGetter call, or, on a backend
// without the seam, one Get per key in request order. Either way the
// result is all-or-nothing (see MultiGetter).
func MultiGet(ctx context.Context, be Backend, table string, keys []string) (values [][]byte, present []bool, err error) {
	if mg, ok := be.(MultiGetter); ok {
		return mg.MultiGet(ctx, table, keys)
	}
	values, present = make([][]byte, len(keys)), make([]bool, len(keys))
	for i, k := range keys {
		if values[i], present[i], err = be.Get(ctx, table, k); err != nil {
			return nil, nil, err
		}
	}
	return values, present, nil
}

// ReadCompactionStats runs be's Compactor.CompactionStats, or reports
// ErrNoCompaction.
func ReadCompactionStats(ctx context.Context, be Backend) (CompactionStats, error) {
	if c, ok := be.(Compactor); ok {
		return c.CompactionStats(ctx)
	}
	return CompactionStats{}, ErrNoCompaction
}

// HashTree runs be's HashRanger.HashTree, or reports ErrNoHashRange.
func HashTree(ctx context.Context, be Backend, table string, fanout int) (TreeDigest, error) {
	if hr, ok := be.(HashRanger); ok {
		return hr.HashTree(ctx, table, fanout)
	}
	return TreeDigest{}, ErrNoHashRange
}

// HashRange runs be's HashRanger.HashRange, or reports ErrNoHashRange.
func HashRange(ctx context.Context, be Backend, table string, fanout, bucket int) ([]KeyHash, error) {
	if hr, ok := be.(HashRanger); ok {
		return hr.HashRange(ctx, table, fanout, bucket)
	}
	return nil, ErrNoHashRange
}
