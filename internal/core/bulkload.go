package core

import (
	"bytes"
	"context"
	"fmt"

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
	if err := c.Validate(); err != nil {
		return err
	}
	// Adopted versions never sat in the write store: nothing is pending, and
	// the placement has nothing to drain.
	if err := s.materialize(ctx, placement{corpus: c}); err != nil {
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
	return s.commit(ctx, parents, func(v types.VersionID) (*types.Delta, error) {
		if !delta.IsConsistent() {
			return nil, fmt.Errorf("%w: version %d", types.ErrInconsistentDelta, v)
		}
		// Fresh adds must originate here; re-adds must already exist.
		for _, r := range delta.Adds {
			if r.CK.Version != v {
				if _, ok := s.corpus.IDForCK(r.CK); !ok {
					return nil, fmt.Errorf("rstore: delta add %v neither originates at %d nor exists", r.CK, v)
				}
			}
		}
		for _, ck := range delta.Dels {
			if _, ok := s.corpus.IDForCK(ck); !ok {
				return nil, fmt.Errorf("%w: delta deletes unknown record %v", types.ErrNotFound, ck)
			}
		}
		if err := s.fitsParent(parents[0], v, delta); err != nil {
			return nil, err
		}
		// The corpus keeps the added records and a flush codes chunks from
		// them: they carry the store's copies of the caller's values.
		owned := &types.Delta{Adds: make([]types.Record, len(delta.Adds)), Dels: delta.Dels}
		for i, r := range delta.Adds {
			owned.Adds[i] = types.Record{CK: r.CK, Value: bytes.Clone(r.Value)}
		}
		return owned, nil
	})
}

// fitsParent refuses, as types.ErrInconsistentDelta, a delta for version v
// that its primary parent contradicts: a delete of a record other than the
// one its key holds in parent (a second delete of a key included), an add of
// a key that still holds a record once the deletes are applied, and two adds
// of one key. It resolves only the keys the delta touches (holding).
func (s *Store) fitsParent(parent, v types.VersionID, delta *types.Delta) error {
	held := map[types.Key]types.CompositeKey{}
	if parent != types.InvalidVersion {
		keys := make([]types.Key, 0, len(delta.Dels)+len(delta.Adds))
		for _, ck := range delta.Dels {
			keys = append(keys, ck.Key)
		}
		for _, r := range delta.Adds {
			keys = append(keys, r.CK.Key)
		}
		var err error
		if held, err = s.holding(parent, keys); err != nil {
			return err
		}
	}
	for _, ck := range delta.Dels {
		if got, ok := held[ck.Key]; !ok || got != ck {
			return fmt.Errorf("%w: version %d deletes %v, which parent %d does not hold", types.ErrInconsistentDelta, v, ck, parent)
		}
		delete(held, ck.Key)
	}
	for _, r := range delta.Adds {
		if got, ok := held[r.CK.Key]; ok {
			return fmt.Errorf("%w: version %d adds %v while %v holds its key", types.ErrInconsistentDelta, v, r.CK, got)
		}
		held[r.CK.Key] = r.CK
	}
	return nil
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
