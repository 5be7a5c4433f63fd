package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"

	"rstore/internal/bitset"
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
// GetHistory): records are produced incrementally — the query resolves the
// slots it returns from memory, then fetches the segments holding them from
// the KVS, Config.QueryFetchBatch chunks' worth at a time — so the first
// record is available before the last segment is fetched, and abandoning the
// cursor (or cancelling the query's context) stops further fetches.
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
// retrieval, Q1): the version→chunk projection picks chunks, the version's
// slot bitmaps pick the segments of each, and batched parallel MultiGets
// fetch them incrementally. Versions still pending in the write store are
// served by overlaying their deltas on the nearest placed ancestor. Record
// order is unspecified (chunk order); GetVersionAll sorts.
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
			cids := s.proj.VersionChunks(anchor)
			wants := make([]chunkSlots, len(cids))
			for i, cid := range cids {
				wants[i] = chunkSlots{cid, s.layout.Map(cid).SlotsOf(anchor)}
			}
			if !s.streamVersionSlots(ctx, c, wants, ov, yield) {
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
// version retrieval, Q2): each key of the range is resolved to the slot v
// holds it at, and only the segments those slots fall in are fetched. Record
// order is unspecified; GetRangeAll sorts.
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
		if anchor != types.InvalidVersion {
			// The anchor holds at most one record of a key: the one whose
			// slot its bitmap in that record's chunk has set.
			var plan slotPlan
			for _, k := range s.keysInRange(r) {
				if loc, ok := s.locate(k, anchor); ok {
					plan.add(loc)
				}
			}
			if !s.streamVersionSlots(ctx, c, plan.wants(), ov, yield) {
				return
			}
		}
		emitOverlayAdds(c, ov, r.contains, yield)
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
// versions (record evolution, Q3), each read from the segment its slot falls
// in. Order is unspecified (chunk order); GetHistoryAll sorts by origin
// version. A key with no records anywhere ends the sequence with a
// KeyNotFoundError.
func (s *Store) GetHistory(ctx context.Context, key types.Key) *Cursor {
	return newCursor(func(c *Cursor, yield func(types.Record, error) bool) {
		s.mu.RLock()
		defer s.mu.RUnlock()

		// Placed records are read from their slots; pending ones live in
		// the write store.
		var plan slotPlan
		var pendingVersions []types.VersionID
		for _, id := range s.corpus.KeyRecords(key) {
			if loc := s.layout.Loc(id); loc.Chunk != chunk.NoChunk {
				plan.add(loc)
			} else {
				pendingVersions = append(pendingVersions, s.corpus.Record(id).CK.Version)
			}
		}
		seen := make(map[types.CompositeKey]bool)
		stopped, err := s.streamSlots(ctx, plan.wants(), &c.stats, func(r types.Record) bool {
			seen[r.CK] = true
			c.stats.Records++
			return yield(r, nil)
		})
		if err != nil {
			yield(types.Record{}, err)
			return
		}
		if stopped {
			return
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
// version v (point query). Where the paper intersects two lossy projections
// ("index-ANDing", §2.4) and fetches every candidate chunk, the record's slot
// is resolved exactly from memory (locate) and one segment is fetched. A
// point query returns one record, so it keeps the buffered shape rather than
// a cursor.
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

	loc, ok := s.locate(key, anchor)
	if !ok {
		return types.Record{}, stats, &types.KeyNotFoundError{Key: key, Version: v}
	}
	var plan slotPlan
	plan.add(loc)
	var rec types.Record
	if _, err := s.streamSlots(ctx, plan.wants(), &stats, func(r types.Record) bool {
		rec = r
		return true
	}); err != nil {
		return types.Record{}, stats, err
	}
	stats.Records = 1
	return rec, stats, nil
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

// streamVersionSlots streams the records at wants — slots of the queried
// version's placed anchor — through yield, skipping overlay-masked records.
// It reports whether the consumer wants more (false = stopped early); errors
// are delivered to yield here.
func (s *Store) streamVersionSlots(ctx context.Context, c *Cursor, wants []chunkSlots, ov *overlayView, yield func(types.Record, error) bool) bool {
	stopped, err := s.streamSlots(ctx, wants, &c.stats, func(r types.Record) bool {
		if ov.masks(r.CK) {
			return true
		}
		c.stats.Records++
		return yield(r, nil)
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

// locate resolves the record of key that placed version v holds to its slot:
// of the key's records (corpus.KeyRecords), the one whose slot v's bitmap in
// that record's chunk has set. All of it is in memory; nothing is fetched.
func (s *Store) locate(key types.Key, v types.VersionID) (chunk.Loc, bool) {
	for _, rec := range s.corpus.KeyRecords(key) {
		loc := s.layout.Loc(rec)
		if loc.Chunk == chunk.NoChunk {
			continue
		}
		if bits := s.layout.Map(loc.Chunk).SlotsOf(v); bits != nil && bits.Contains(loc.Slot) {
			return loc, true
		}
	}
	return chunk.Loc{}, false
}

// chunkSlots names the slots a query returns from one chunk. A full-version
// read passes the version's own bitmap, shared with the chunk map: read only.
type chunkSlots struct {
	cid   chunk.ID
	slots *bitset.BitSet
}

// slotPlan collects the slots a key-addressed query returns, per chunk.
type slotPlan struct {
	byChunk map[chunk.ID]*bitset.BitSet
}

func (p *slotPlan) add(loc chunk.Loc) {
	if p.byChunk == nil {
		p.byChunk = make(map[chunk.ID]*bitset.BitSet)
	}
	bits := p.byChunk[loc.Chunk]
	if bits == nil {
		bits = bitset.New(int(loc.Slot) + 1)
		p.byChunk[loc.Chunk] = bits
	}
	bits.Set(loc.Slot)
}

// wants lists the plan in chunk order.
func (p *slotPlan) wants() []chunkSlots {
	out := make([]chunkSlots, 0, len(p.byChunk))
	for _, cid := range slices.Sorted(maps.Keys(p.byChunk)) {
		out = append(out, chunkSlots{cid, p.byChunk[cid]})
	}
	return out
}

// segmentRead is one segment a query fetches: the slots it returns from the
// segment's chunk, where the layout says the segment begins and how many
// slots it holds, and — once fetched — its value.
type segmentRead struct {
	chunkSlots
	seg, first uint32
	numSlots   int
	value      []byte
}

// decode extracts the wanted records from the fetched value. A value that
// begins at another slot or holds another number of slots than the layout
// recorded was stored under the wrong key or is not what placement wrote.
func (r *segmentRead) decode() ([]types.Record, error) {
	first, n, recs, err := chunk.DecodeSegment(r.value, r.slots)
	if err != nil {
		return nil, err
	}
	if first != r.first || n != r.numSlots {
		return nil, fmt.Errorf("%w: chunk %d segment %d holds slots [%d, %d), the layout has [%d, %d)",
			types.ErrCorrupt, r.cid, r.seg, first, int(first)+n, r.first, int(r.first)+r.numSlots)
	}
	return recs, nil
}

// streamSlots feeds the records at wants (ascending by chunk) to emit in
// (chunk, slot) order, fetching the segments of Config.QueryFetchBatch chunks
// per round and decoding them in parallel. This is what makes query results
// streams rather than materialized slices: server memory per query is
// O(batch), the first records surface before later segments are fetched, and
// a context that ends — or an emit that returns false — stops before the
// next fetch. Only the segments a wanted slot falls in are fetched, and only
// the wanted slots of each are decoded.
func (s *Store) streamSlots(ctx context.Context, wants []chunkSlots, stats *QueryStats, emit func(types.Record) bool) (stopped bool, err error) {
	batch := s.cfg.QueryFetchBatch
	for start := 0; start < len(wants); start += batch {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		reads, err := s.fetchSegments(ctx, wants[start:min(start+batch, len(wants))], stats)
		if err != nil {
			return false, err
		}
		decoded, err := decodeSegments(reads)
		if err != nil {
			return false, err
		}
		for _, recs := range decoded {
			for _, r := range recs {
				if !emit(r) {
					return true, nil
				}
			}
		}
	}
	return false, nil
}

// fetchSegments resolves, with one MultiGet, the segments the wanted slots
// of a batch of chunks fall in. Span counts every chunk consulted;
// Requests/BytesRead reflect backend traffic — segment keys and segment
// bytes. A missing segment indicates corruption (the layout is authoritative)
// and surfaces as an error.
func (s *Store) fetchSegments(ctx context.Context, wants []chunkSlots, stats *QueryStats) ([]segmentRead, error) {
	stats.Span += len(wants)
	var reads []segmentRead
	var keys []string
	for _, w := range wants {
		// ends[i] is where segment i ends: the next one's first slot.
		firsts := s.layout.Segments(w.cid)
		ends := append(firsts[1:len(firsts):len(firsts)], uint32(s.layout.Map(w.cid).NumSlots))
		seg, fetched := 0, -1 // slots ascend: so does the segment they fall in
		w.slots.ForEach(func(slot uint32) bool {
			for slot >= ends[seg] {
				seg++
			}
			if seg != fetched {
				fetched = seg
				reads = append(reads, segmentRead{chunkSlots: w, seg: uint32(seg), first: firsts[seg], numSlots: int(ends[seg] - firsts[seg])})
				keys = append(keys, chunk.SegmentKey(s.gen, w.cid, uint32(seg)))
			}
			return true
		})
	}
	if len(keys) == 0 {
		return nil, nil
	}
	res, err := s.kv.MultiGet(ctx, TableChunks, keys)
	if err != nil {
		return nil, err
	}
	if len(res.Missing) > 0 {
		return nil, fmt.Errorf("%w: chunk segment %s missing", types.ErrCorrupt, keys[res.Missing[0]])
	}
	s.bookMultiGet(res, stats)
	for i, value := range res.Values {
		reads[i].value = value
		stats.SimElapsed += s.kv.ChargeScan(len(value))
	}
	return reads, nil
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

// KeySpan exposes the key span — the chunks holding records of key, which a
// record-evolution query consults (for experiments).
func (s *Store) KeySpan(key types.Key) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.keySpan(key)
}

// keySpan counts the distinct chunks of key's placed records.
func (s *Store) keySpan(key types.Key) int {
	var cids []chunk.ID
	for _, rec := range s.corpus.KeyRecords(key) {
		if loc := s.layout.Loc(rec); loc.Chunk != chunk.NoChunk {
			cids = append(cids, loc.Chunk)
		}
	}
	slices.Sort(cids)
	return len(slices.Compact(cids))
}

// TotalVersionSpan sums spans across versions (for experiments).
func (s *Store) TotalVersionSpan() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.proj.TotalVersionSpan()
}
