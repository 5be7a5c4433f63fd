package engine

import "context"

// The absent-seam rule, written once. A Backend's optional extensions
// (Compactor, HashRanger) are discovered by type assertion; the holders
// of a bare Backend — a kvstore node, the engined dispatch loop — go
// through the functions below instead of asserting themselves, so "the
// seam is missing" means the same thing on every path: each answers with
// its ErrNo* sentinel. None of the sentinels matches ErrUnavailable: the
// backend was reached, it just cannot do that.

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
