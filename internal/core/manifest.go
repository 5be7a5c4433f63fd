package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"rstore/internal/bitset"
	"rstore/internal/chunk"
	"rstore/internal/codec"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// manifestKey is the single meta-table entry holding the root. The key
// predates format 3 so that older manifests are found and refused.
const manifestKey = "manifest"

// manifestVersion guards the on-disk format. Version 5 stores a chunk as
// key-ordered, front-coded segment values (chunk.SegmentKey) in place of one
// payload; version 4 took the versions' composite-key deltas out of the
// placement records, whose slot bitmaps already imply them; a version-3 store
// wrote both, a version-2 store carried chunk maps inside the chunk values,
// version 1 used unprefixed chunk keys, and all four must be re-initialized,
// not misread.
const manifestVersion = 5

// placementKey renders the key of the idx-th placement record of a
// generation; like chunk.SegmentKey it carries the generation, so a full
// repartition writes a fresh log beside the live one.
func placementKey(gen, idx uint32) string { return fmt.Sprintf("g%08x-p%08x", gen, idx) }

// saveRoot persists the root: format version, placement generation, and how
// much of that generation is committed — chunk count, placement-record
// count, placed-version count — plus the branches. Its write is the commit
// point of every flush and repartition; everything it counts is already
// durable. Called under s.mu.
func (s *Store) saveRoot(ctx context.Context) error {
	buf := codec.PutUvarint(nil, manifestVersion)
	buf = codec.PutUvarint(buf, uint64(s.gen))
	buf = codec.PutUvarint(buf, uint64(s.layout.NumChunks()))
	buf = codec.PutUvarint(buf, uint64(s.numPlacements))
	buf = codec.PutUvarint(buf, uint64(s.placed))
	names := make([]string, 0, len(s.branches))
	for name := range s.branches {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = codec.PutUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = codec.PutString(buf, name)
		buf = codec.PutUvarint(buf, uint64(s.branches[name]))
	}
	// BatchPut rather than Put: the root is the recovery root, and the
	// batch path is the one durable backends fsync before acknowledging.
	return s.kv.BatchPut(ctx, TableMeta, []kvstore.Entry{{Key: manifestKey, Value: buf}})
}

// loadRoot parses a root into s (generation, counts, branches) and returns
// its chunk count, which the layout must reach once the log is folded.
func (s *Store) loadRoot(buf []byte) (numChunks uint32, err error) {
	ver, rest, err := codec.Uvarint(buf)
	if err != nil {
		return 0, err
	}
	if ver != manifestVersion {
		return 0, fmt.Errorf("%w: manifest version %d (this build reads %d; re-initialize the store)",
			types.ErrCorrupt, ver, manifestVersion)
	}
	var fields [5]uint64 // gen, chunks, placement records, placed versions, branches
	for i := range fields {
		if fields[i], rest, err = codec.Uvarint(rest); err != nil {
			return 0, err
		}
	}
	s.gen, s.numPlacements, s.placed = uint32(fields[0]), uint32(fields[2]), int(fields[3])
	s.branches = make(map[string]types.VersionID, fields[4])
	for i := uint64(0); i < fields[4]; i++ {
		var name string
		if name, rest, err = codec.String(rest); err != nil {
			return 0, err
		}
		var v uint64
		if v, rest, err = codec.Uvarint(rest); err != nil {
			return 0, err
		}
		s.branches[name] = types.VersionID(v)
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("%w: %d trailing manifest bytes", types.ErrCorrupt, len(rest))
	}
	return uint32(fields[1]), nil
}

// savePlacement writes placement record idx of generation gen: the parent
// edges of versions [first, NumVersions), and what those versions add to the
// chunk maps — per touched chunk, a chunk map holding only their slot bitmaps
// (the whole map for a chunk the record introduces; chunk.Layout.TakeDelta).
// The bitmaps are the only statement of which records a version holds: its
// tree-edge delta is their difference from its parent's, which Load derives
// (applyPlacement), and the record values live in the chunks. Online flushes
// append one record per batch; a full repartition writes one record holding
// everything. The record only counts once the root does (publish).
func (s *Store) savePlacement(ctx context.Context, gen, idx uint32, first types.VersionID, maps map[chunk.ID]*chunk.Map) error {
	buf := codec.PutUvarint(nil, uint64(first))
	buf = codec.PutUvarint(buf, uint64(s.graph.NumVersions()-int(first)))
	for v := first; int(v) < s.graph.NumVersions(); v++ {
		parents := s.graph.Parents(v)
		buf = codec.PutUvarint(buf, uint64(len(parents)))
		for _, p := range parents {
			buf = codec.PutUvarint(buf, uint64(p))
		}
	}
	cids := make([]chunk.ID, 0, len(maps))
	for cid := range maps {
		cids = append(cids, cid)
	}
	slices.Sort(cids) // new chunks must fold in id order
	buf = codec.PutUvarint(buf, uint64(len(cids)))
	for _, cid := range cids {
		buf = codec.PutUvarint(buf, uint64(cid))
		buf = codec.PutBytes(buf, maps[cid].AppendBinary(nil))
	}
	return s.kv.BatchPut(ctx, TablePlacement, []kvstore.Entry{{Key: placementKey(gen, idx), Value: buf}})
}

// chunkBits is one version's slot bitmap in one chunk.
type chunkBits struct {
	cid  chunk.ID
	bits *bitset.BitSet
}

// applyPlacement folds one placement record into a store being loaded.
// chunks[c] is what chunk c's segments decoded to. The record's
// map deltas are decoded first; each of its versions, in id order, then gets
// the tree-edge delta its bitmaps imply (deltaFromBitmaps) and extends the
// graph and the corpus; only then do the map deltas extend the layout, which
// resolves a new chunk's records through the corpus the versions just filled.
func (s *Store) applyPlacement(buf []byte, chunks []chunk.Stored) error {
	first, rest, err := codec.Uvarint(buf)
	if err != nil {
		return err
	}
	if first != uint64(s.graph.NumVersions()) {
		return fmt.Errorf("%w: placement record starts at version %d, expected %d", types.ErrCorrupt, first, s.graph.NumVersions())
	}
	n, rest, err := codec.Uvarint(rest)
	if err != nil {
		return err
	}
	if n > uint64(len(rest)) { // a version takes a byte at least
		return fmt.Errorf("%w: placement record counts %d versions in %d bytes", types.ErrCorrupt, n, len(rest))
	}
	parents := make([][]types.VersionID, n)
	for i := range parents {
		var np uint64
		if np, rest, err = codec.Uvarint(rest); err != nil {
			return err
		}
		if np > uint64(len(rest)) {
			return fmt.Errorf("%w: version %d counts %d parents in %d bytes", types.ErrCorrupt, first+uint64(i), np, len(rest))
		}
		parents[i] = make([]types.VersionID, np)
		for j := range parents[i] {
			var p uint64
			if p, rest, err = codec.Uvarint(rest); err != nil {
				return err
			}
			parents[i][j] = types.VersionID(p)
		}
	}

	nm, rest, err := codec.Uvarint(rest)
	if err != nil {
		return err
	}
	if nm > uint64(len(rest)) {
		return fmt.Errorf("%w: placement record counts %d map deltas in %d bytes", types.ErrCorrupt, nm, len(rest))
	}
	type mapDelta struct {
		cid chunk.ID
		m   *chunk.Map
	}
	deltas := make([]mapDelta, nm)
	// spans[i] lists version first+i's bitmaps, ascending by chunk — the
	// order the deltas arrive in.
	spans := make([][]chunkBits, n)
	for i := range deltas {
		var cid uint64
		if cid, rest, err = codec.Uvarint(rest); err != nil {
			return err
		}
		var enc []byte
		if enc, rest, err = codec.Bytes(rest); err != nil {
			return err
		}
		if cid >= uint64(len(chunks)) {
			return fmt.Errorf("%w: placement record names chunk %d, the root counts %d", types.ErrCorrupt, cid, len(chunks))
		}
		if i > 0 && chunk.ID(cid) <= deltas[i-1].cid {
			return fmt.Errorf("%w: placement record lists chunk %d after chunk %d", types.ErrCorrupt, cid, deltas[i-1].cid)
		}
		m, err := chunk.DecodeMap(enc, len(chunks[cid].Records))
		if err != nil {
			return err
		}
		deltas[i] = mapDelta{chunk.ID(cid), m}
		for v, bits := range m.Versions {
			if uint64(v) < first || uint64(v)-first >= n {
				return fmt.Errorf("%w: placement record of versions [%d, %d) holds a bitmap of version %d", types.ErrCorrupt, first, first+n, v)
			}
			spans[uint64(v)-first] = append(spans[uint64(v)-first], chunkBits{chunk.ID(cid), bits})
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing placement-record bytes", types.ErrCorrupt, len(rest))
	}

	for i, span := range spans {
		v := types.VersionID(first) + types.VersionID(i)
		var parentSpan []chunkBits
		if len(parents[i]) > 0 {
			switch p := parents[i][0]; {
			case p >= v:
				return fmt.Errorf("%w: version %d placed before its parent %d", types.ErrCorrupt, v, p)
			case uint64(p) >= first: // placed by this record
				parentSpan = spans[uint64(p)-first]
			default: // by an earlier one: the layout has its bitmaps
				for _, cid := range s.proj.VersionChunks(p) {
					parentSpan = append(parentSpan, chunkBits{cid, s.layout.Map(cid).SlotsOf(p)})
				}
			}
		}
		if err := s.replayVersion(v, parents[i], deltaFromBitmaps(span, parentSpan, chunks)); err != nil {
			return err
		}
	}
	for _, d := range deltas {
		if err := s.layout.Restore(d.cid, d.m, chunks[d.cid]); err != nil {
			return err
		}
	}
	return nil
}

// deltaFromBitmaps reconstructs a version's tree-edge delta from its slot
// bitmaps and its tree parent's (both ascending by chunk; no parent span for
// the root): over the chunks of either, a slot set for the version and not
// for the parent is an add, one set for the parent and not for the version a
// delete, each resolved through the chunks' decoded records — every slot of a
// bitmap indexes them, which chunk.DecodeMap saw to. Adds come out
// in ascending (chunk, slot) order, which is the order Load hands out record
// ids in.
func deltaFromBitmaps(cur, parent []chunkBits, chunks []chunk.Stored) *types.Delta {
	delta := &types.Delta{}
	// resolve visits the records of chunk cid at the slots in has and not in
	// hasNot (nil: none to exclude).
	resolve := func(cid chunk.ID, has, hasNot *bitset.BitSet, visit func(types.Record)) {
		if hasNot != nil {
			has = has.Clone()
			has.AndNot(hasNot)
		}
		has.ForEach(func(slot uint32) bool {
			visit(chunks[cid].Records[slot])
			return true
		})
	}
	add := func(r types.Record) { delta.Adds = append(delta.Adds, r) }
	del := func(r types.Record) { delta.Dels = append(delta.Dels, r.CK) }
	for len(cur) > 0 || len(parent) > 0 {
		switch {
		case len(parent) == 0 || (len(cur) > 0 && cur[0].cid < parent[0].cid):
			resolve(cur[0].cid, cur[0].bits, nil, add)
			cur = cur[1:]
		case len(cur) == 0 || parent[0].cid < cur[0].cid:
			resolve(parent[0].cid, parent[0].bits, nil, del)
			parent = parent[1:]
		default:
			resolve(cur[0].cid, cur[0].bits, parent[0].bits, add)
			resolve(cur[0].cid, parent[0].bits, cur[0].bits, del)
			cur, parent = cur[1:], parent[1:]
		}
	}
	return delta
}

// replayVersion re-registers version v — from a placement record or a
// delta-store entry — with a store being loaded.
func (s *Store) replayVersion(v types.VersionID, parents []types.VersionID, delta *types.Delta) error {
	if err := s.applyVersion(v, parents, delta); err != nil {
		return fmt.Errorf("%w: replaying version %d: %v", types.ErrCorrupt, v, err)
	}
	return nil
}

// Exists reports whether kv holds a persisted store (a root entry),
// without the cost — or the repair side effects — of a full Load.
func Exists(ctx context.Context, kv *kvstore.Store) (bool, error) {
	_, err := kv.Get(ctx, TableMeta, manifestKey)
	if err == nil {
		return true, nil
	}
	if errors.Is(err, types.ErrNotFound) {
		return false, nil
	}
	return false, err
}

// Checkpoint persists the root without running placement. Open writes
// nothing, so a durable deployment must checkpoint once after creating a
// fresh store: the root is what Load replays later-acknowledged commits
// against (flush and SetBranch refresh it as a side effect).
func (s *Store) Checkpoint(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.mutable(); err != nil {
		return err
	}
	return s.saveRoot(ctx)
}

// Load reopens a store previously persisted to kv: the root names the
// placement generation and how much of it is committed, each chunk's segment
// entries decode and join to its records in slot order, and the generation's
// placement records fold in order: each version's delta is read off its slot
// bitmaps and its parent's (applyPlacement) into the graph and the corpus,
// and the bitmaps go through chunk.Layout.Restore into the locations, chunk
// maps and the projection. Record ids are handed out in that fold's order and
// are local to the process; nothing persisted names one.
//
// Load also finishes what a crash interrupted. Flush persists in the order
// chunks → placement record → root → delta-store drain, so a crash leaves at
// most (a) chunk entries and a placement record past the root's counts —
// skipped and (on writable stores) deleted here, after which the
// still-pending versions simply re-flush under the same ids — and (b)
// leftover delta entries for versions the root already placed — ignored and
// cleaned up. Commits acknowledged after the last flush are replayed from
// their self-describing delta entries: the contiguous run starting at the
// root's placed-version count.
func Load(ctx context.Context, cfg Config) (*Store, error) {
	cfg, ownsKV, err := cfg.withDefaults(ctx)
	if err != nil {
		return nil, err
	}
	kv := cfg.KV
	fail := func(err error) (*Store, error) {
		if ownsKV {
			kv.Close()
		}
		return nil, err
	}
	raw, err := kv.Get(ctx, TableMeta, manifestKey)
	if err != nil {
		return fail(fmt.Errorf("rstore: load: %w", err))
	}
	s := newStore(cfg, ownsKV)
	numChunks, err := s.loadRoot(raw)
	if err != nil {
		return fail(err)
	}

	// Recover record payloads and slot layouts from the live chunks' segments.
	// Entries of other generations are debris of an interrupted full
	// repartition — a newer generation whose root never committed, or an older
	// one whose cleanup was cut short — and segments of chunks at or past the
	// root's chunk count are orphans of an interrupted flush, which may have
	// written some segments of a chunk and not others; both are skipped here
	// and garbage-collected below, key by key.
	parts := make([][]chunk.Part, numChunks) // chunk id → its decoded segments, in scan order
	var debrisChunks, debrisPlacements []string
	var loadErr error
	scanErr := kv.Scan(ctx, TableChunks, func(key string, value []byte) bool {
		g, cid, seg, ok := chunk.ParseSegmentKey(key)
		if !ok {
			loadErr = fmt.Errorf("%w: bad chunk segment key %q", types.ErrCorrupt, key)
			return false
		}
		if g != s.gen || cid >= numChunks {
			debrisChunks = append(debrisChunks, key)
			return true
		}
		part := chunk.Part{Index: seg}
		if part.First, _, part.Records, loadErr = chunk.DecodeSegment(value, nil); loadErr != nil {
			return false
		}
		parts[cid] = append(parts[cid], part)
		return true
	})
	if scanErr != nil {
		return fail(scanErr)
	}
	if loadErr != nil {
		return fail(loadErr)
	}
	// A counted chunk is whole or the store is corrupt: its segments must be
	// all there and in their places (JoinSegments), and hold the slots its map
	// counts (applyPlacement).
	chunks := make([]chunk.Stored, numChunks)
	for cid := range parts {
		if chunks[cid], err = chunk.JoinSegments(parts[cid]); err != nil {
			return fail(fmt.Errorf("chunk %d: %w", cid, err))
		}
	}

	// Delta store: whole entries keyed by version, for the replay of unplaced
	// commits below.
	type deltaEntry struct {
		parents []types.VersionID
		delta   *types.Delta
	}
	deltas := make(map[types.VersionID]deltaEntry)
	scanErr = kv.Scan(ctx, TableDeltaStore, func(key string, value []byte) bool {
		var v uint32
		if _, err := fmt.Sscanf(key, "d%08x", &v); err != nil {
			loadErr = fmt.Errorf("%w: bad delta key %q", types.ErrCorrupt, key)
			return false
		}
		parents, d, err := decodeDeltaEntry(value)
		if err != nil {
			loadErr = err
			return false
		}
		deltas[types.VersionID(v)] = deltaEntry{parents: parents, delta: d}
		return true
	})
	if scanErr != nil {
		return fail(scanErr)
	}
	if loadErr != nil {
		return fail(loadErr)
	}

	// Placement log: records [0, numPlacements) of the root's generation,
	// folded in order. A hole is corruption, not a shorter history.
	placements := make([][]byte, s.numPlacements)
	scanErr = kv.Scan(ctx, TablePlacement, func(key string, value []byte) bool {
		var g, idx uint32
		if _, err := fmt.Sscanf(key, "g%08x-p%08x", &g, &idx); err != nil {
			loadErr = fmt.Errorf("%w: bad placement key %q", types.ErrCorrupt, key)
			return false
		}
		if g != s.gen || idx >= s.numPlacements {
			debrisPlacements = append(debrisPlacements, key)
		} else {
			placements[idx] = value
		}
		return true
	})
	if scanErr != nil {
		return fail(scanErr)
	}
	if loadErr != nil {
		return fail(loadErr)
	}
	for idx, rec := range placements {
		if rec == nil {
			return fail(fmt.Errorf("%w: placement record %s missing", types.ErrCorrupt, placementKey(s.gen, uint32(idx))))
		}
		if err := s.applyPlacement(rec, chunks); err != nil {
			return fail(err)
		}
	}
	if s.graph.NumVersions() != s.placed || s.layout.NumChunks() != int(numChunks) {
		return fail(fmt.Errorf("%w: placement log holds %d versions and %d chunks, root says %d and %d",
			types.ErrCorrupt, s.graph.NumVersions(), s.layout.NumChunks(), s.placed, numChunks))
	}

	// Replay commits acknowledged after the last flush: contiguous delta
	// entries starting at the placed-version count. They are pending again
	// and place on the next flush.
	for v := types.VersionID(s.placed); ; v++ {
		e, ok := deltas[v]
		if !ok {
			break
		}
		if err := s.replayVersion(v, e.parents, e.delta); err != nil {
			return fail(err)
		}
	}
	s.sortedKeys = slices.Sorted(slices.Values(s.corpus.Keys()))

	// Repair: writable stores drop the crash leftovers — orphan chunks and
	// records (the next flush reuses their ids), whole superseded or
	// uncommitted generations, and delta entries of placed versions.
	// Read-only replicas only skipped them in memory, which queries never
	// look past.
	if !cfg.ReadOnly {
		for _, key := range debrisChunks {
			if err := kv.Delete(ctx, TableChunks, key); err != nil {
				return fail(err)
			}
		}
		for _, key := range debrisPlacements {
			if err := kv.Delete(ctx, TablePlacement, key); err != nil {
				return fail(err)
			}
		}
		for v := range deltas {
			if int(v) < s.placed {
				if err := kv.Delete(ctx, TableDeltaStore, deltaKey(v)); err != nil {
					return fail(err)
				}
			}
		}
	}
	return s, nil
}
