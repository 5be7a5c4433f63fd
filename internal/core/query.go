package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sort"

	"rstore/internal/chunk"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// Range selects primary keys for range retrieval: the half-open interval
// [Lo, Hi), or — with Unbounded set — every key at or above Lo. The
// explicit unbounded form replaces the old practice of passing a "large"
// sentinel key, which silently excluded keys sorting above the sentinel.
type Range struct {
	Lo types.Key
	Hi types.Key
	// Unbounded extends the range to the top of the keyspace; Hi is
	// ignored.
	Unbounded bool
}

// KeyRange is the bounded range [lo, hi).
func KeyRange(lo, hi types.Key) Range { return Range{Lo: lo, Hi: hi} }

// KeyRangeFrom is the unbounded range [lo, ∞).
func KeyRangeFrom(lo types.Key) Range { return Range{Lo: lo, Unbounded: true} }

func (r Range) contains(k types.Key) bool {
	return k >= r.Lo && (r.Unbounded || k < r.Hi)
}

// Cursor is the streaming result of a query (GetVersion, GetRange,
// GetHistory): records are produced incrementally — chunks are fetched from
// the KVS a batch at a time (Config.QueryFetchBatch) — so the first record
// is available before the last chunk is fetched, and abandoning the cursor
// (or cancelling the query's context) stops further fetches.
//
// Iterate with Records (usable once); Stats reports the retrieval costs
// accumulated so far and is complete once the sequence ends. An error —
// including the context's, when it ends mid-query — terminates the sequence
// as the final pair's second value.
//
// The cursor holds the store's read lock while being iterated, so a
// consumer that stalls between records delays concurrent commits; drain
// promptly or use the ...All convenience wrappers.
type Cursor struct {
	stats QueryStats
	run   func(c *Cursor, yield func(types.Record, error) bool)
	spent bool
}

func newCursor(run func(c *Cursor, yield func(types.Record, error) bool)) *Cursor {
	return &Cursor{run: run}
}

// Records returns the record sequence. It may be ranged over once; a
// second iteration yields only an error.
func (c *Cursor) Records() iter.Seq2[types.Record, error] {
	return func(yield func(types.Record, error) bool) {
		if c.spent {
			yield(types.Record{}, errors.New("rstore: cursor already iterated"))
			return
		}
		c.spent = true
		c.run(c, yield)
	}
}

// Stats reports the retrieval costs accumulated so far; it is complete
// once the record sequence has ended.
func (c *Cursor) Stats() QueryStats { return c.stats }

// All drains the cursor into a slice, in stream order. On error the
// records delivered before it are returned alongside.
func (c *Cursor) All() ([]types.Record, QueryStats, error) {
	var out []types.Record
	for r, err := range c.Records() {
		if err != nil {
			return out, c.stats, err
		}
		out = append(out, r)
	}
	return out, c.stats, nil
}

// GetVersion streams every record of version v (the paper's full version
// retrieval, Q1): the version→chunk projection picks chunks, batched
// parallel MultiGets fetch them incrementally, and chunk maps extract the
// member records as each batch lands. Versions still pending in the write
// store are served by overlaying their deltas on the nearest placed
// ancestor. Record order is unspecified (chunk order); GetVersionAll sorts.
func (s *Store) GetVersion(ctx context.Context, v types.VersionID) *Cursor {
	return newCursor(func(c *Cursor, yield func(types.Record, error) bool) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if !s.validVersion(v) {
			yield(types.Record{}, &types.VersionUnknownError{Version: v})
			return
		}
		anchor, overlayPath := s.anchorOf(v)
		ov, err := s.overlayEffect(ctx, overlayPath, &c.stats)
		if err != nil {
			yield(types.Record{}, err)
			return
		}
		if anchor != types.InvalidVersion {
			if !s.streamVersionChunks(ctx, c, anchor, s.proj.VersionChunks(anchor), ov, nil, yield) {
				return
			}
		}
		emitOverlayAdds(c, ov, nil, yield)
	})
}

// GetVersionAll retrieves every record of version v as one sorted slice —
// the buffered convenience form of GetVersion.
func (s *Store) GetVersionAll(ctx context.Context, v types.VersionID) ([]types.Record, QueryStats, error) {
	recs, stats, err := s.GetVersion(ctx, v).All()
	types.SortRecords(recs)
	return recs, stats, err
}

// GetRange streams the records of version v whose keys fall in r (partial
// version retrieval, Q2). Record order is unspecified; GetRangeAll sorts.
func (s *Store) GetRange(ctx context.Context, r Range, v types.VersionID) *Cursor {
	return newCursor(func(c *Cursor, yield func(types.Record, error) bool) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if !s.validVersion(v) {
			yield(types.Record{}, &types.VersionUnknownError{Version: v})
			return
		}
		anchor, overlayPath := s.anchorOf(v)
		ov, err := s.overlayEffect(ctx, overlayPath, &c.stats)
		if err != nil {
			yield(types.Record{}, err)
			return
		}
		filter := func(k types.Key) bool { return r.contains(k) }
		if anchor != types.InvalidVersion {
			// Union of key-projection entries over the range, intersected
			// with the version projection.
			inVersion := make(map[chunk.ID]bool)
			for _, cid := range s.proj.VersionChunks(anchor) {
				inVersion[cid] = true
			}
			cidSet := make(map[chunk.ID]bool)
			for _, k := range s.keysInRange(r) {
				for _, cid := range s.proj.KeyChunks(k) {
					if inVersion[cid] {
						cidSet[cid] = true
					}
				}
			}
			cids := make([]chunk.ID, 0, len(cidSet))
			for cid := range cidSet {
				cids = append(cids, cid)
			}
			sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })
			if !s.streamVersionChunks(ctx, c, anchor, cids, ov, filter, yield) {
				return
			}
		}
		emitOverlayAdds(c, ov, filter, yield)
	})
}

// GetRangeAll retrieves version v's records with keys in r as one sorted
// slice — the buffered convenience form of GetRange.
func (s *Store) GetRangeAll(ctx context.Context, r Range, v types.VersionID) ([]types.Record, QueryStats, error) {
	recs, stats, err := s.GetRange(ctx, r, v).All()
	types.SortRecords(recs)
	return recs, stats, err
}

// GetHistory streams every record carrying the given primary key across all
// versions (record evolution, Q3). Order is unspecified (chunk order);
// GetHistoryAll sorts by origin version. A key with no records anywhere
// ends the sequence with a KeyNotFoundError.
func (s *Store) GetHistory(ctx context.Context, key types.Key) *Cursor {
	return newCursor(func(c *Cursor, yield func(types.Record, error) bool) {
		s.mu.RLock()
		defer s.mu.RUnlock()

		seen := make(map[types.CompositeKey]bool)
		stopped, err := s.streamChunks(ctx, s.proj.KeyChunks(key), &c.stats, func(e *chunkEntry, decoded []types.Record) (bool, error) {
			s.chargeScan(e, &c.stats)
			matched := false
			for _, r := range decoded {
				if r.CK.Key != key {
					continue
				}
				matched = true
				if seen[r.CK] {
					continue
				}
				seen[r.CK] = true
				c.stats.Records++
				if !yield(r, nil) {
					return false, nil
				}
			}
			if !matched {
				c.stats.WastedChunks++
			}
			return true, nil
		})
		if err != nil {
			yield(types.Record{}, err)
			return
		}
		if stopped {
			return
		}

		// Pending records of this key live in the write store.
		var pendingVersions []types.VersionID
		for _, id := range s.corpus.KeyRecords(key) {
			if s.layout.Loc(id).Chunk == chunk.NoChunk {
				pendingVersions = append(pendingVersions, s.corpus.Record(id).CK.Version)
			}
		}
		if len(pendingVersions) > 0 {
			deltas, err := s.fetchDeltas(ctx, pendingVersions, &c.stats)
			if err != nil {
				yield(types.Record{}, err)
				return
			}
			for _, d := range deltas {
				for _, r := range d.Adds {
					if r.CK.Key != key || seen[r.CK] {
						continue
					}
					seen[r.CK] = true
					c.stats.Records++
					if !yield(r, nil) {
						return
					}
				}
			}
		}
		if len(seen) == 0 {
			yield(types.Record{}, &types.KeyNotFoundError{Key: key, Version: types.InvalidVersion})
		}
	})
}

// GetHistoryAll retrieves every record of a key as one slice ordered by
// origin version — the buffered convenience form of GetHistory.
func (s *Store) GetHistoryAll(ctx context.Context, key types.Key) ([]types.Record, QueryStats, error) {
	recs, stats, err := s.GetHistory(ctx, key).All()
	sort.Slice(recs, func(i, j int) bool { return recs[i].CK.Version < recs[j].CK.Version })
	return recs, stats, err
}

// GetRecord retrieves the record with the given primary key visible in
// version v (point query): both projections are intersected ("index-ANDing",
// §2.4) to pick candidate chunks. A point query returns one record, so it
// keeps the buffered shape rather than a cursor.
func (s *Store) GetRecord(ctx context.Context, key types.Key, v types.VersionID) (types.Record, QueryStats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var stats QueryStats
	if !s.validVersion(v) {
		return types.Record{}, stats, &types.VersionUnknownError{Version: v}
	}
	anchor, overlayPath := s.anchorOf(v)

	// Newest-first through the pending deltas: the first touch of the key
	// decides.
	if len(overlayPath) > 0 {
		deltas, err := s.fetchDeltas(ctx, overlayPath, &stats)
		if err != nil {
			return types.Record{}, stats, err
		}
		for i := len(deltas) - 1; i >= 0; i-- {
			d := deltas[i]
			for _, r := range d.Adds {
				if r.CK.Key == key {
					stats.Records = 1
					return r, stats, nil
				}
			}
			for _, ck := range d.Dels {
				if ck.Key == key {
					return types.Record{}, stats, &types.KeyNotFoundError{Key: key, Version: v}
				}
			}
		}
	}
	if anchor == types.InvalidVersion {
		return types.Record{}, stats, &types.KeyNotFoundError{Key: key, Version: v}
	}

	cids := s.proj.Intersect(key, anchor)
	if len(cids) == 0 {
		return types.Record{}, stats, &types.KeyNotFoundError{Key: key, Version: v}
	}
	entries, err := s.fetchChunks(ctx, cids, &stats)
	if err != nil {
		return types.Record{}, stats, err
	}
	for i, e := range entries {
		if e == nil {
			continue
		}
		found, rec, err := extractKeyAtVersion(e, anchor, key)
		if err != nil {
			return types.Record{}, stats, err
		}
		s.chargeScan(e, &stats)
		if found {
			stats.Records = 1
			// Remaining fetched chunks were wasted (lossy projection).
			stats.WastedChunks += len(entries) - i - 1
			return rec, stats, nil
		}
		stats.WastedChunks++
	}
	return types.Record{}, stats, &types.KeyNotFoundError{Key: key, Version: v}
}

// --- shared plumbing ---

func (s *Store) validVersion(v types.VersionID) bool {
	return v != types.InvalidVersion && s.graph.Valid(v) && int(v) < s.corpus.NumVersions()
}

// anchorOf walks up from v to the nearest placed (non-pending) version and
// returns it plus the pending path (anchor-exclusive, ordered root→v).
// Anchor is InvalidVersion when the whole path is pending.
func (s *Store) anchorOf(v types.VersionID) (types.VersionID, []types.VersionID) {
	var overlay []types.VersionID
	cur := v
	for cur != types.InvalidVersion && int(cur) >= s.placed {
		overlay = append(overlay, cur)
		cur = s.graph.Parent(cur)
	}
	// Reverse to root→v order.
	for i, j := 0, len(overlay)-1; i < j; i, j = i+1, j-1 {
		overlay[i], overlay[j] = overlay[j], overlay[i]
	}
	return cur, overlay
}

// overlayView is the net effect of the pending deltas between a queried
// version and its placed anchor: which anchor records are hidden (deleted,
// or superseded by a pending re-add) and which records the overlay itself
// contributes. Pending deltas are small (they are the unflushed write
// batch), so resolving them up front keeps the chunk stream single-pass.
type overlayView struct {
	masked map[types.CompositeKey]bool
	adds   []types.Record // sorted by composite key
}

func (ov *overlayView) masks(ck types.CompositeKey) bool { return ov.masked[ck] }

// overlayEffect fetches the pending deltas of path (root→v order) and folds
// them into an overlayView.
func (s *Store) overlayEffect(ctx context.Context, path []types.VersionID, stats *QueryStats) (*overlayView, error) {
	ov := &overlayView{}
	if len(path) == 0 {
		return ov, nil
	}
	deltas, err := s.fetchDeltas(ctx, path, stats)
	if err != nil {
		return nil, err
	}
	addSet := make(map[types.CompositeKey]types.Record)
	ov.masked = make(map[types.CompositeKey]bool)
	for _, d := range deltas {
		for _, ck := range d.Dels {
			delete(addSet, ck)
			ov.masked[ck] = true
		}
		for _, r := range d.Adds {
			addSet[r.CK] = r
			ov.masked[r.CK] = true // a re-add of a placed record is served from the overlay
		}
	}
	ov.adds = make([]types.Record, 0, len(addSet))
	for _, r := range addSet {
		ov.adds = append(ov.adds, r)
	}
	types.SortRecords(ov.adds)
	return ov, nil
}

// streamVersionChunks streams version v's member records out of cids
// through yield, skipping overlay-masked records and keys failing filter
// (nil = all). It reports whether the consumer wants more (false = stopped
// early); errors are delivered to yield here.
func (s *Store) streamVersionChunks(ctx context.Context, c *Cursor, v types.VersionID, cids []chunk.ID, ov *overlayView, filter func(types.Key) bool, yield func(types.Record, error) bool) bool {
	stopped, err := s.streamChunks(ctx, cids, &c.stats, func(e *chunkEntry, decoded []types.Record) (bool, error) {
		cont := true
		matched, err := extractSlots(e, decoded, v, func(r types.Record) bool {
			if ov.masks(r.CK) || (filter != nil && !filter(r.CK.Key)) {
				return true
			}
			c.stats.Records++
			cont = yield(r, nil)
			return cont
		})
		s.chargeScan(e, &c.stats)
		if !matched {
			c.stats.WastedChunks++
		}
		return cont, err
	})
	if err != nil {
		yield(types.Record{}, err)
		return false
	}
	return !stopped
}

// emitOverlayAdds yields the overlay's own records (after the anchor's so
// chunk streaming stays single-pass), filtered when filter is non-nil.
func emitOverlayAdds(c *Cursor, ov *overlayView, filter func(types.Key) bool, yield func(types.Record, error) bool) {
	for _, r := range ov.adds {
		if filter != nil && !filter(r.CK.Key) {
			continue
		}
		c.stats.Records++
		if !yield(r, nil) {
			return
		}
	}
}

// chunkEntry is a fetched chunk: its payload from the KVS, its map from the
// store's memory (s.layout; the query holds s.mu, so no flush extends it
// underneath).
type chunkEntry struct {
	id      chunk.ID
	payload []byte
	m       *chunk.Map
}

// streamChunks feeds each chunk of cids (fetched in batches of
// Config.QueryFetchBatch, decoded in parallel within a batch) to emit, in
// cid order. This is what makes query results streams rather than
// materialized slices: server memory per query is O(batch), the first
// records surface before later chunks are fetched, and a context that ends
// — or an emit that returns false — stops before the next batch fetch.
func (s *Store) streamChunks(ctx context.Context, cids []chunk.ID, stats *QueryStats, emit func(e *chunkEntry, decoded []types.Record) (bool, error)) (stopped bool, err error) {
	batch := s.cfg.QueryFetchBatch
	for start := 0; start < len(cids); start += batch {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		end := min(start+batch, len(cids))
		entries, err := s.fetchChunks(ctx, cids[start:end], stats)
		if err != nil {
			return false, err
		}
		decoded, err := decodeEntries(entries)
		if err != nil {
			return false, err
		}
		for i, e := range entries {
			if e == nil {
				continue
			}
			cont, err := emit(e, decoded[i])
			if err != nil {
				return false, err
			}
			if !cont {
				return true, nil
			}
		}
	}
	return false, nil
}

// fetchChunks resolves chunk payloads with one MultiGet. Span counts every
// chunk consulted; Requests/BytesRead reflect backend traffic. Missing
// chunks indicate corruption (projections are authoritative) and surface as
// errors.
func (s *Store) fetchChunks(ctx context.Context, cids []chunk.ID, stats *QueryStats) ([]*chunkEntry, error) {
	if len(cids) == 0 {
		return nil, nil
	}
	stats.Span += len(cids)
	keys := make([]string, len(cids))
	for i, cid := range cids {
		keys[i] = chunk.KVKey(s.gen, cid)
	}
	res, err := s.kv.MultiGet(ctx, TableChunks, keys)
	if err != nil {
		return nil, err
	}
	if len(res.Missing) > 0 {
		return nil, fmt.Errorf("%w: chunk %s missing", types.ErrCorrupt, keys[res.Missing[0]])
	}
	s.bookMultiGet(res, stats)
	out := make([]*chunkEntry, len(cids))
	for i, payload := range res.Values {
		out[i] = &chunkEntry{id: cids[i], payload: payload, m: s.layout.Map(cids[i])}
	}
	return out, nil
}

// corruptSlotError reports a chunk-map slot outside the decoded payload.
func corruptSlotError(id chunk.ID, slot uint32) error {
	return fmt.Errorf("%w: chunk %d slot %d out of range", types.ErrCorrupt, id, slot)
}

// extractKeyAtVersion finds the record with the given key among version v's
// slots of one chunk.
func extractKeyAtVersion(e *chunkEntry, v types.VersionID, key types.Key) (bool, types.Record, error) {
	slots := e.m.SlotsOf(v)
	if slots == nil {
		return false, types.Record{}, nil
	}
	recs, err := chunk.DecodeChunk(e.payload)
	if err != nil {
		return false, types.Record{}, err
	}
	var out types.Record
	found := false
	slots.ForEach(func(slot uint32) bool {
		if int(slot) < len(recs) && recs[slot].CK.Key == key {
			out = recs[slot]
			found = true
			return false
		}
		return true
	})
	return found, out, nil
}

// fetchDeltas multigets pending deltas from the write store.
func (s *Store) fetchDeltas(ctx context.Context, versions []types.VersionID, stats *QueryStats) ([]*types.Delta, error) {
	keys := make([]string, len(versions))
	for i, v := range versions {
		keys[i] = deltaKey(v)
	}
	res, err := s.kv.MultiGet(ctx, TableDeltaStore, keys)
	if err != nil {
		return nil, err
	}
	if len(res.Missing) > 0 {
		return nil, fmt.Errorf("%w: pending delta %s missing", types.ErrCorrupt, keys[res.Missing[0]])
	}
	s.bookMultiGet(res, stats)
	stats.Span += len(versions)
	out := make([]*types.Delta, len(versions))
	for i, val := range res.Values {
		_, d, err := decodeDeltaEntry(val)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

func (s *Store) bookMultiGet(res *kvstore.MultiGetResult, stats *QueryStats) {
	stats.Requests += res.Requests
	stats.BytesRead += res.BytesRead
	stats.SimElapsed += res.Elapsed
}

func (s *Store) chargeScan(e *chunkEntry, stats *QueryStats) {
	stats.SimElapsed += s.kv.ChargeScan(len(e.payload))
}

// keysInRange returns the known primary keys selected by r.
func (s *Store) keysInRange(r Range) []types.Key {
	i := sort.Search(len(s.sortedKeys), func(i int) bool { return s.sortedKeys[i] >= r.Lo })
	j := len(s.sortedKeys)
	if !r.Unbounded {
		j = sort.Search(len(s.sortedKeys), func(i int) bool { return s.sortedKeys[i] >= r.Hi })
		if j < i {
			j = i
		}
	}
	return s.sortedKeys[i:j]
}

// VersionSpan exposes the placed span of a version (for experiments).
func (s *Store) VersionSpan(v types.VersionID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.proj.VersionSpan(v)
}

// KeySpan exposes the key span (for experiments).
func (s *Store) KeySpan(key types.Key) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.proj.KeySpan(key)
}

// TotalVersionSpan sums spans across versions (for experiments).
func (s *Store) TotalVersionSpan() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.proj.TotalVersionSpan()
}
