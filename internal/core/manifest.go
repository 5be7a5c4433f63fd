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

// savePlacement writes placement record idx of generation gen: the graph
// edges and composite-key deltas of versions [first, NumVersions) (values
// live in chunks), and what those versions add to the chunk maps — per
// touched chunk, a chunk map holding only their slot bitmaps (the whole map
// for a chunk the record introduces; chunk.Layout.TakeDelta). Online flushes
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
	return s.kv.BatchPut(ctx, TablePlacement, []kvstore.Entry{{Key: placementKey(gen, idx), Value: buf}})
}

// applyPlacement folds one placement record into a store being loaded:
// its versions extend the graph and corpus (record values come from values),
// its map deltas extend the layout (slots[c] lists chunk c's composite keys
// in slot order, for the chunks the record introduces).
func (s *Store) applyPlacement(buf []byte, values map[types.CompositeKey][]byte, slots [][]types.CompositeKey) error {
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
		if cid >= uint64(len(slots)) {
			return fmt.Errorf("%w: placement record names chunk %d, the root counts %d", types.ErrCorrupt, cid, len(slots))
		}
		if err := s.layout.Restore(chunk.ID(cid), m, slots[cid]); err != nil {
			return err
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing placement-record bytes", types.ErrCorrupt, len(rest))
	}
	return nil
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
// placement generation and how much of it is committed, the generation's
// placement records fold in order into the graph, the corpus and — through
// chunk.Layout.Restore, with the slot layouts the chunk entries decode to —
// the locations, chunk maps and projections; record payloads are recovered
// from chunk entries and the delta store.
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

	// Recover record payloads and slot layouts from the live chunks. Entries
	// of other generations are debris of an interrupted full repartition — a
	// newer generation whose root never committed, or an older one whose
	// cleanup was cut short — and entries at or past the root's chunk count
	// are orphans of an interrupted flush; both are skipped here and
	// garbage-collected below.
	values := make(map[types.CompositeKey][]byte)
	slots := make([][]types.CompositeKey, numChunks) // chunk id → slot → composite key
	var debrisChunks, debrisPlacements []string
	var loadErr error
	scanErr := kv.Scan(ctx, TableChunks, func(key string, payload []byte) bool {
		g, cid, ok := chunk.ParseKVKey(key)
		if !ok {
			loadErr = fmt.Errorf("%w: bad chunk key %q", types.ErrCorrupt, key)
			return false
		}
		if g != s.gen || cid >= numChunks {
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
		if err := s.applyPlacement(rec, values, slots); err != nil {
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
