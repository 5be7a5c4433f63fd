package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"

	"rstore/internal/bitset"
	"rstore/internal/chunk"
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
// GetHistory). Iterating it first plans the query under the store's read
// lock from memory alone — every slot it returns and the pending records it
// overlays (readPlan), with no storage call — and then streams the plan with
// no store lock held: the segments holding those slots are fetched
// queryFetchBatch chunks' worth at a time, so the first record is available
// before the last segment is fetched, and abandoning the cursor (or
// cancelling the query's context) stops further fetches. The plan is a
// snapshot of the queried version as it stood when iteration began; commits,
// flushes and Materialize go ahead while a cursor streams, however slowly its
// consumer reads.
//
// Iterate with Records (usable once); Stats reports the retrieval costs
// accumulated so far and is complete once the sequence ends. An error —
// including the context's, when it ends mid-query, and types.ErrClosed, when
// the store closed its cluster under the cursor — terminates the sequence as
// the final pair's second value.
type Cursor struct {
	stats QueryStats
	run   func(c *Cursor, yield func(types.Record, error) bool)
	spent bool
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
// served by overlaying their deltas, which the corpus holds, on the nearest
// placed ancestor. Record order is unspecified (chunk order); GetVersionAll
// sorts.
func (s *Store) GetVersion(ctx context.Context, v types.VersionID) *Cursor {
	return s.query(ctx, func() (*readPlan, error) {
		p, anchor, err := s.planOverlay(v, nil)
		if err != nil || anchor == types.InvalidVersion {
			return p, err
		}
		for _, cid := range s.layout.VersionChunks(anchor) {
			p.chunks = append(p.chunks, s.planChunk(cid, s.layout.Map(cid).SlotsOf(anchor)))
		}
		return p, nil
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
	return s.query(ctx, func() (*readPlan, error) {
		p, anchor, err := s.planOverlay(v, r.contains)
		if err != nil || anchor == types.InvalidVersion {
			return p, err
		}
		// The anchor holds at most one record of a key: the one whose slot
		// its bitmap in that record's chunk has set. A record the overlay
		// masks is left out, so a key a pending delta decides costs no fetch.
		slots := slotSet{}
		for _, k := range s.keysInRange(r) {
			if rec, loc, ok := s.locate(k, anchor); ok && !p.masked[s.corpus.Record(rec).CK] {
				slots.add(loc)
			}
		}
		p.chunks = s.chunkReads(slots)
		return p, nil
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
	return s.query(ctx, func() (*readPlan, error) {
		ids := s.corpus.KeyRecords(key)
		if len(ids) == 0 {
			return nil, &types.KeyNotFoundError{Key: key, Version: types.InvalidVersion}
		}
		// Placed records are read from their slots; a pending one no chunk
		// holds yet is served from the corpus.
		slots, p := slotSet{}, &readPlan{}
		for _, id := range ids {
			if loc := s.layout.Loc(id); loc.Chunk != chunk.NoChunk {
				slots.add(loc)
			} else {
				p.adds = append(p.adds, s.corpus.Record(id))
			}
		}
		p.chunks = s.chunkReads(slots)
		return p, nil
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
// version v (point query): the range of that one key. Where the paper
// intersects two lossy projections ("index-ANDing", §2.4) and fetches every
// candidate chunk, the record's slot is resolved exactly from memory (locate)
// and one segment is fetched — none when a pending delta decides the key. A
// point query returns one record, so it keeps the buffered shape rather than
// a cursor.
func (s *Store) GetRecord(ctx context.Context, key types.Key, v types.VersionID) (types.Record, QueryStats, error) {
	recs, stats, err := s.GetRange(ctx, KeyRange(key, key+"\x00"), v).All()
	if err == nil && len(recs) == 0 {
		err = &types.KeyNotFoundError{Key: key, Version: v}
	}
	if err != nil {
		return types.Record{}, stats, err
	}
	return recs[0], stats, nil
}

// --- planning, under s.mu ---

// readPlan is a query resolved from memory: everything its stream reads,
// taken under s.mu and never written after. The chunk maps' bitmaps and the
// segments' first slots it shares with the layout are immutable once placed
// (chunk.Layout), the pending values it shares with the corpus once
// committed (the commit copied them), and so are the segments in the KVS
// while the plan pins their generation, so the stream needs no store lock. A
// plan is O(chunks read) plus the pending records it overlays.
type readPlan struct {
	gen    uint32  // the placement generation the segments are read under
	pin    *genPin // held on gen until the stream ends
	chunks []chunkRead
	// masked hides the records of the placed anchor that pending deltas
	// delete or re-add; adds are the pending records the query returns, as
	// the corpus holds them (stream hands out copies).
	masked map[types.CompositeKey]bool
	adds   []types.Record
}

// chunkRead is what a plan reads of one chunk: the slots it returns, the
// first slot of each of the chunk's segments (Layout.Segments) and its slot
// count.
type chunkRead struct {
	cid      chunk.ID
	slots    *bitset.BitSet
	segs     []uint32
	numSlots int
}

// planChunk is a plan's read of slots of chunk cid. Callers hold s.mu.
func (s *Store) planChunk(cid chunk.ID, slots *bitset.BitSet) chunkRead {
	return chunkRead{cid, slots, s.layout.Segments(cid), s.layout.Map(cid).NumSlots}
}

// slotSet collects the slots a key-addressed query returns, per chunk.
type slotSet map[chunk.ID]*bitset.BitSet

func (ss slotSet) add(loc chunk.Loc) {
	if ss[loc.Chunk] == nil {
		ss[loc.Chunk] = bitset.New(int(loc.Slot) + 1)
	}
	ss[loc.Chunk].Set(loc.Slot)
}

// chunkReads lists a key-addressed plan's reads in chunk order. Callers hold
// s.mu.
func (s *Store) chunkReads(ss slotSet) []chunkRead {
	out := make([]chunkRead, 0, len(ss))
	for _, cid := range slices.Sorted(maps.Keys(ss)) {
		out = append(out, s.planChunk(cid, ss[cid]))
	}
	return out
}

// query returns the cursor of the query plan resolves. Iterating it runs
// plan under s.mu.RLock and pins the generation the plan was resolved under;
// the lock is released before the first segment is fetched, the pin once the
// stream ends.
func (s *Store) query(ctx context.Context, plan func() (*readPlan, error)) *Cursor {
	return &Cursor{run: func(c *Cursor, yield func(types.Record, error) bool) {
		p, err := s.resolve(plan)
		if err != nil {
			yield(types.Record{}, err)
			return
		}
		defer func() {
			// A sweep that fails leaves debris Open deletes, as a crash before
			// it would; the records were delivered whole all the same.
			_ = p.pin.release(context.WithoutCancel(ctx))
		}()
		if err := s.stream(ctx, p, &c.stats, yield); err != nil && !errors.Is(err, errStopped) {
			yield(types.Record{}, err)
		}
	}}
}

// resolve runs plan under s.mu.RLock and pins the generation it read.
func (s *Store) resolve(plan func() (*readPlan, error)) (*readPlan, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, err := plan()
	if err != nil {
		return nil, err
	}
	// publish lets go of the store's hold on a pin only once s.pin is
	// another, under the write lock: holders never rise from 0.
	s.pin.holders.Add(1)
	p.gen, p.pin = s.gen, s.pin
	return p, nil
}

// planOverlay starts the plan of a query of version v: it checks v and folds
// the deltas of the pending versions between v and its placed anchor, root
// first, into the plan's masked set and its adds — those whose keys keep
// accepts (nil: all), sorted by composite key. It returns the anchor,
// InvalidVersion when all of v is pending. The corpus holds every pending
// delta, values included (applyVersion registered it, and the flush that
// places it codes its chunks from there): a plan reads memory only. Callers
// hold s.mu, or s.wmu alone: a commit resolves the keys it touches with it
// (holding).
func (s *Store) planOverlay(v types.VersionID, keep func(types.Key) bool) (*readPlan, types.VersionID, error) {
	if !s.validVersion(v) {
		return nil, types.InvalidVersion, &types.VersionUnknownError{Version: v}
	}
	anchor, path := s.anchorOf(v)
	p := &readPlan{}
	if len(path) == 0 {
		return p, anchor, nil
	}
	added := make(map[uint32]bool)
	p.masked = make(map[types.CompositeKey]bool)
	for _, u := range path {
		for _, id := range s.corpus.Dels(u) {
			delete(added, id)
			p.masked[s.corpus.Record(id).CK] = true
		}
		for _, id := range s.corpus.Adds(u) {
			added[id] = true
			p.masked[s.corpus.Record(id).CK] = true // a re-add of a placed record is served from the overlay
		}
	}
	for id := range added {
		if r := s.corpus.Record(id); keep == nil || keep(r.CK.Key) {
			p.adds = append(p.adds, r)
		}
	}
	types.SortRecords(p.adds)
	return p, anchor, nil
}

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

// locate resolves the record of key that placed version v holds to its id
// and slot: of the key's records (corpus.KeyRecords), the one whose slot v's
// bitmap in that record's chunk has set. It walks them newest first, so at a
// tip the live record is the first it tests. All of it is in memory; nothing
// is fetched. Callers hold s.mu, or s.wmu alone: only wmu holders change the
// corpus and the layout.
func (s *Store) locate(key types.Key, v types.VersionID) (uint32, chunk.Loc, bool) {
	for _, rec := range slices.Backward(s.corpus.KeyRecords(key)) {
		loc := s.layout.Loc(rec)
		if loc.Chunk == chunk.NoChunk {
			continue
		}
		if bits := s.layout.Map(loc.Chunk).SlotsOf(v); bits != nil && bits.Contains(loc.Slot) {
			return rec, loc, true
		}
	}
	return 0, chunk.Loc{}, false
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

// --- streaming, no store lock held ---

// queryFetchBatch is how many chunks' wanted segments a query fetches per
// round: server memory per query is O(queryFetchBatch), and the first records
// surface before later segments are fetched.
const queryFetchBatch = 8

// stream feeds p's records to yield: the records at its chunks' slots, in
// (chunk, slot) order, that the overlay does not mask, then the pending
// records it adds, each value a copy of the corpus's. It fetches the segments
// of queryFetchBatch chunks per round and decodes them in parallel, yielding
// each segment's records in order as they are decoded (ordered); a context
// that ends stops it before the next fetch, a yield that returns false at
// once. Only the segments a wanted slot falls in are fetched, and only the
// wanted slots of each are decoded. It reads nothing of s but the cluster.
func (s *Store) stream(ctx context.Context, p *readPlan, stats *QueryStats, yield func(types.Record, error) bool) error {
	emit := func(r types.Record) error {
		if stats.Records++; !yield(r, nil) {
			return errStopped
		}
		return nil
	}
	for start := 0; start < len(p.chunks); start += queryFetchBatch {
		if err := ctx.Err(); err != nil {
			return err
		}
		reads, err := s.fetchSegments(ctx, p.gen, p.chunks[start:min(start+queryFetchBatch, len(p.chunks))], stats)
		if err != nil {
			return err
		}
		decode := func(i int) ([]types.Record, error) { return reads[i].decode() }
		if err := ordered(len(reads), decode, func(_ int, recs []types.Record) error {
			for _, r := range recs {
				if p.masked[r.CK] {
					continue
				}
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	for _, r := range p.adds {
		r.Value = bytes.Clone(r.Value)
		if err := emit(r); err != nil {
			return err
		}
	}
	return nil
}

// errStopped ends a stream whose consumer wants no more records.
var errStopped = errors.New("rstore: stream stopped by its consumer")

// segmentRead is one segment a query fetches: the slots it returns from the
// segment's chunk, where the layout says the segment begins and how many
// slots it holds, and — once fetched — its value.
type segmentRead struct {
	cid        chunk.ID
	slots      *bitset.BitSet
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

// fetchSegments resolves, with one MultiGet, the segments of generation gen
// the wanted slots of a batch of chunks fall in. Span counts every chunk
// consulted; Requests/BytesRead reflect backend traffic — segment keys and
// segment bytes. A missing segment indicates corruption (the layout is
// authoritative) and surfaces as an error.
func (s *Store) fetchSegments(ctx context.Context, gen uint32, chunks []chunkRead, stats *QueryStats) ([]segmentRead, error) {
	stats.Span += len(chunks)
	var reads []segmentRead
	var keys []string
	for _, c := range chunks {
		// ends[i] is where segment i ends: the next one's first slot.
		ends := append(c.segs[1:len(c.segs):len(c.segs)], uint32(c.numSlots))
		seg, fetched := 0, -1 // slots ascend: so does the segment they fall in
		c.slots.ForEach(func(slot uint32) bool {
			for slot >= ends[seg] {
				seg++
			}
			if seg != fetched {
				fetched = seg
				reads = append(reads, segmentRead{cid: c.cid, slots: c.slots, seg: uint32(seg), first: c.segs[seg], numSlots: int(ends[seg] - c.segs[seg])})
				keys = append(keys, chunk.SegmentKey(gen, c.cid, uint32(seg)))
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
	stats.Requests += res.Requests
	stats.BytesRead += res.BytesRead
	for i, value := range res.Values {
		reads[i].value = value
	}
	return reads, nil
}

// VersionSpan exposes the placed span of a version (for experiments).
func (s *Store) VersionSpan(v types.VersionID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.layout.VersionSpan(v)
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
	return s.layout.TotalVersionSpan()
}
