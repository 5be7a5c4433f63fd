package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"rstore/internal/chunk"
	"rstore/internal/codec"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// manifestKey is the single meta-table entry holding the root. The key
// predates format 3 so that older manifests are found and refused.
const manifestKey = "manifest"

// manifestVersion guards the on-disk format. Version 3 split the manifest
// into a small root plus the append-only placement log; a version-2 store
// carried chunk maps inside the chunk values, version 1 used unprefixed chunk
// keys, and both must be re-initialized, not misread.
const manifestVersion = 3

// placementKey renders the key of the idx-th placement record of a
// generation; like chunk.KVKey it carries the generation, so a full
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
	buf = codec.PutUvarint(buf, uint64(s.numChunks))
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

// loadRoot parses a root into s (generation, counts, branches).
func (s *Store) loadRoot(buf []byte) error {
	ver, rest, err := codec.Uvarint(buf)
	if err != nil {
		return err
	}
	if ver != manifestVersion {
		return fmt.Errorf("%w: manifest version %d (this build reads %d; re-initialize the store)",
			types.ErrCorrupt, ver, manifestVersion)
	}
	var fields [5]uint64 // gen, chunks, placement records, placed versions, branches
	for i := range fields {
		if fields[i], rest, err = codec.Uvarint(rest); err != nil {
			return err
		}
	}
	s.gen, s.numChunks, s.numPlacements, s.placed = uint32(fields[0]), uint32(fields[1]), uint32(fields[2]), int(fields[3])
	s.branches = make(map[string]types.VersionID, fields[4])
	for i := uint64(0); i < fields[4]; i++ {
		var name string
		if name, rest, err = codec.String(rest); err != nil {
			return err
		}
		var v uint64
		if v, rest, err = codec.Uvarint(rest); err != nil {
			return err
		}
		s.branches[name] = types.VersionID(v)
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing manifest bytes", types.ErrCorrupt, len(rest))
	}
	return nil
}

// savePlacement appends one placement record to the current generation's
// log: the graph edges and composite-key deltas of versions [first, first+n)
// (values live in chunks), and what those versions add to the chunk maps —
// per touched chunk, a chunk map holding only their slot bitmaps (the whole
// map for a chunk the record introduces). Online flushes append one record
// per batch; a full repartition writes one record holding everything. The
// record only counts once the root does.
func (s *Store) savePlacement(ctx context.Context, first types.VersionID, n int, maps map[chunk.ID]*chunk.Map) error {
	buf := codec.PutUvarint(nil, uint64(first))
	buf = codec.PutUvarint(buf, uint64(n))
	for v := first; v < first+types.VersionID(n); v++ {
		parents := s.graph.Parents(v)
		buf = codec.PutUvarint(buf, uint64(len(parents)))
		for _, p := range parents {
			buf = codec.PutUvarint(buf, uint64(p))
		}
		for _, ids := range [2][]uint32{s.corpus.Adds(v), s.corpus.Dels(v)} {
			buf = codec.PutUvarint(buf, uint64(len(ids)))
			for _, id := range ids {
				buf = codec.PutCompositeKey(buf, s.corpus.Record(id).CK)
			}
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
	if err := s.kv.BatchPut(ctx, TablePlacement, []kvstore.Entry{{Key: placementKey(s.gen, s.numPlacements), Value: buf}}); err != nil {
		return err
	}
	s.numPlacements++
	return nil
}

// applyPlacement folds one placement record into a store being loaded:
// its versions extend the graph and corpus (record values come from values),
// its map deltas extend s.maps.
func (s *Store) applyPlacement(buf []byte, values map[types.CompositeKey][]byte) error {
	first, rest, err := codec.Uvarint(buf)
	if err != nil {
		return err
	}
	if int(first) != s.graph.NumVersions() {
		return fmt.Errorf("%w: placement record starts at version %d, expected %d", types.ErrCorrupt, first, s.graph.NumVersions())
	}
	n, rest, err := codec.Uvarint(rest)
	if err != nil {
		return err
	}
	for v := types.VersionID(first); v < types.VersionID(first+n); v++ {
		var np uint64
		if np, rest, err = codec.Uvarint(rest); err != nil {
			return err
		}
		parents := make([]types.VersionID, np)
		for i := range parents {
			var p uint64
			if p, rest, err = codec.Uvarint(rest); err != nil {
				return err
			}
			parents[i] = types.VersionID(p)
		}
		delta := &types.Delta{}
		var na uint64
		if na, rest, err = codec.Uvarint(rest); err != nil {
			return err
		}
		for i := uint64(0); i < na; i++ {
			var ck types.CompositeKey
			if ck, rest, err = codec.CompositeKey(rest); err != nil {
				return err
			}
			val, ok := values[ck]
			if !ok {
				return fmt.Errorf("%w: no payload recovered for %v", types.ErrCorrupt, ck)
			}
			delta.Adds = append(delta.Adds, types.Record{CK: ck, Value: val})
		}
		var nd uint64
		if nd, rest, err = codec.Uvarint(rest); err != nil {
			return err
		}
		for i := uint64(0); i < nd; i++ {
			var ck types.CompositeKey
			if ck, rest, err = codec.CompositeKey(rest); err != nil {
				return err
			}
			delta.Dels = append(delta.Dels, ck)
		}
		if err := s.replayVersion(v, parents, delta); err != nil {
			return err
		}
	}

	nm, rest, err := codec.Uvarint(rest)
	if err != nil {
		return err
	}
	for i := uint64(0); i < nm; i++ {
		var cid uint64
		if cid, rest, err = codec.Uvarint(rest); err != nil {
			return err
		}
		var enc []byte
		if enc, rest, err = codec.Bytes(rest); err != nil {
			return err
		}
		m, err := chunk.DecodeMap(enc)
		if err != nil {
			return err
		}
		switch {
		case cid == uint64(len(s.maps)):
			s.maps = append(s.maps, m)
		case cid < uint64(len(s.maps)) && s.maps[cid].NumSlots == m.NumSlots:
			for v, bm := range m.Versions {
				s.maps[cid].Versions[v] = bm
			}
		default:
			return fmt.Errorf("%w: placement record extends chunk %d (%d slots) out of turn", types.ErrCorrupt, cid, m.NumSlots)
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing placement-record bytes", types.ErrCorrupt, len(rest))
	}
	return nil
}

// replayVersion re-registers version v — from a placement record or a
// delta-store entry — with the graph and corpus of a store being loaded.
// No parents, or the commit path's parents[0] == InvalidVersion, marks the
// root.
func (s *Store) replayVersion(v types.VersionID, parents []types.VersionID, delta *types.Delta) error {
	var got types.VersionID
	var err error
	if len(parents) == 0 || parents[0] == types.InvalidVersion {
		got, err = s.graph.AddRoot()
	} else {
		got, err = s.graph.AddVersion(parents...)
	}
	if err == nil && got != v {
		err = fmt.Errorf("got id %d", got)
	}
	if err == nil {
		err = s.corpus.AddVersionDelta(v, delta)
	}
	if err != nil {
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
// placement generation and how much of it is committed, the generation's
// placement records fold in order into the graph, the corpus and the chunk
// maps, record payloads are recovered from chunk entries and the delta
// store, and locations and projections are rebuilt from those.
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
	if err := s.loadRoot(raw); err != nil {
		return fail(err)
	}

	// Recover record payloads and slot layouts from the live chunks. Entries
	// of other generations are debris of an interrupted full repartition — a
	// newer generation whose root never committed, or an older one whose
	// cleanup was cut short — and entries at or past the root's chunk count
	// are orphans of an interrupted flush; both are skipped here and
	// garbage-collected below.
	values := make(map[types.CompositeKey][]byte)
	slots := make([][]types.CompositeKey, s.numChunks) // chunk id → slot → composite key
	var debrisChunks, debrisPlacements []string
	var loadErr error
	scanErr := kv.Scan(ctx, TableChunks, func(key string, payload []byte) bool {
		g, cid, ok := chunk.ParseKVKey(key)
		if !ok {
			loadErr = fmt.Errorf("%w: bad chunk key %q", types.ErrCorrupt, key)
			return false
		}
		if g != s.gen || cid >= s.numChunks {
			debrisChunks = append(debrisChunks, key)
			return true
		}
		recs, err := chunk.DecodeChunk(payload)
		if err != nil {
			loadErr = err
			return false
		}
		slots[cid] = make([]types.CompositeKey, len(recs))
		for slot, r := range recs {
			values[r.CK] = r.Value
			slots[cid][slot] = r.CK
		}
		return true
	})
	if scanErr != nil {
		return fail(scanErr)
	}
	if loadErr != nil {
		return fail(loadErr)
	}

	// Delta store: record payloads for pending versions, plus whole entries
	// keyed by version for the replay of unplaced commits below.
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
		for _, r := range d.Adds {
			values[r.CK] = r.Value
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
		if err := s.applyPlacement(rec, values); err != nil {
			return fail(err)
		}
	}
	if s.graph.NumVersions() != s.placed || len(s.maps) != int(s.numChunks) {
		return fail(fmt.Errorf("%w: placement log holds %d versions and %d chunks, root says %d and %d",
			types.ErrCorrupt, s.graph.NumVersions(), len(s.maps), s.placed, s.numChunks))
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

	// Rebuild locations and projections from the live chunks and the folded
	// maps — the state flush and Materialize derived them from. Chunks are
	// visited in id order, so every adjacency list comes out sorted.
	s.locs = make([]chunk.Loc, s.corpus.NumRecords())
	for i := range s.locs {
		s.locs[i] = chunk.Loc{Chunk: chunk.NoChunk}
	}
	for cid, cks := range slots {
		if len(cks) != s.maps[cid].NumSlots {
			return fail(fmt.Errorf("%w: chunk %s holds %d records, its map %d slots",
				types.ErrCorrupt, chunk.KVKey(s.gen, chunk.ID(cid)), len(cks), s.maps[cid].NumSlots))
		}
		for slot, ck := range cks {
			id, ok := s.corpus.IDForCK(ck)
			if !ok {
				return fail(fmt.Errorf("%w: chunked record %v not in the placement log", types.ErrCorrupt, ck))
			}
			s.locs[id] = chunk.Loc{Chunk: chunk.ID(cid), Slot: uint32(slot)}
			s.proj.AddKeyChunk(ck.Key, chunk.ID(cid))
		}
		for v, bm := range s.maps[cid].Versions {
			if !bm.Empty() {
				s.proj.ObserveVersionChunk(v, chunk.ID(cid))
			}
		}
	}

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
