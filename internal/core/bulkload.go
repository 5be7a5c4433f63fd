package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"rstore/internal/corpus"
	"rstore/internal/types"
)

// BulkLoad adopts a pre-built corpus (e.g. a generated dataset or an export
// from another system) into an empty store and materializes it offline with
// the configured partitioner. The store takes ownership of the corpus. Plans
// see the empty store until publish installs the corpus, its sorted keys and
// its layout in one step: never versions that have no chunks.
func (s *Store) BulkLoad(ctx context.Context, c *corpus.Corpus) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.mutable(); err != nil {
		return err
	}
	if s.graph.NumVersions() != 0 {
		return fmt.Errorf("rstore: bulk load requires an empty store (have %d versions)", s.graph.NumVersions())
	}
	if err := c.Graph().Validate(); err != nil {
		return err
	}
	// Adopted versions never sat in the write store: nothing is pending, and
	// the placement has nothing to drain.
	if err := s.materialize(ctx, placement{corpus: c, keys: slices.Sorted(slices.Values(c.Keys()))}); err != nil {
		// Whatever stopped it, nothing may build on this store.
		return s.poison(err)
	}
	return nil
}

// CommitDelta ingests a version whose delta the client computed itself —
// the paper's native ingest path ("the system requests only those records
// from the client that have changed, which in essence is the delta", §2.4).
// Added records must carry the new version id in their composite keys unless
// they re-introduce an existing record (merge traffic). The first commit
// (parents = [InvalidVersion]) creates the root.
func (s *Store) CommitDelta(ctx context.Context, parents []types.VersionID, delta *types.Delta) (types.VersionID, error) {
	return s.commit(ctx, parents, func(v types.VersionID) (*types.Delta, map[types.Key]types.CompositeKey, error) {
		if !delta.IsConsistent() {
			return nil, nil, fmt.Errorf("%w: version %d", types.ErrInconsistentDelta, v)
		}
		// Fresh adds must originate here; re-adds must already exist.
		for _, r := range delta.Adds {
			if r.CK.Version != v {
				if _, ok := s.corpus.IDForCK(r.CK); !ok {
					return nil, nil, fmt.Errorf("rstore: delta add %v neither originates at %d nor exists", r.CK, v)
				}
			}
		}
		for _, ck := range delta.Dels {
			if _, ok := s.corpus.IDForCK(ck); !ok {
				return nil, nil, fmt.Errorf("%w: delta deletes unknown record %v", types.ErrNotFound, ck)
			}
		}
		// The corpus keeps the added records and a flush codes chunks from
		// them: they carry the store's copies of the caller's values.
		owned := &types.Delta{Adds: make([]types.Record, len(delta.Adds)), Dels: delta.Dels}
		for i, r := range delta.Adds {
			owned.Adds[i] = types.Record{CK: r.CK, Value: bytes.Clone(r.Value)}
		}
		return owned, nil, nil
	})
}

// ChunkStorageBytes sums what placement persists: the chunk payloads plus the
// placement records, which hold the chunk maps (and the version graph's
// edges). A backend scan failure reports zero; it is
// a stats helper, not a source of truth.
func (s *Store) ChunkStorageBytes(ctx context.Context) int64 {
	var total int64
	for _, table := range []string{TableChunks, TablePlacement} {
		if err := s.kv.Scan(ctx, table, func(_ string, value []byte) bool {
			total += int64(len(value))
			return true
		}); err != nil {
			return 0
		}
	}
	return total
}
