package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"rstore/internal/chunk"
	"rstore/internal/codec"
	"rstore/internal/corpus"
	"rstore/internal/index"
	"rstore/internal/kvstore"
	"rstore/internal/types"
	"rstore/internal/vgraph"
)

// manifestKey is the single meta-table entry holding the manifest.
const manifestKey = "manifest"

// manifestVersion guards the on-disk format. Version 2 added the placement
// generation (epoch-prefixed chunk keys); version-1 stores used unprefixed
// chunk keys and must be re-initialized, not misread.
const manifestVersion = 2

// saveManifest persists everything needed to reopen the store against the
// same KVS: the placement generation, the version graph with per-version
// composite-key deltas (values live in chunks / the delta store), branches,
// chunk count, and the pending set. Called under s.mu.
func (s *Store) saveManifest(ctx context.Context) error {
	var buf []byte
	buf = codec.PutUvarint(buf, manifestVersion)
	buf = codec.PutUvarint(buf, uint64(s.gen))
	n := s.graph.NumVersions()
	buf = codec.PutUvarint(buf, uint64(n))
	for v := 0; v < n; v++ {
		vv := types.VersionID(v)
		parents := s.graph.Parents(vv)
		buf = codec.PutUvarint(buf, uint64(len(parents)))
		for _, p := range parents {
			buf = codec.PutUvarint(buf, uint64(p))
		}
		adds := s.corpus.Adds(vv)
		buf = codec.PutUvarint(buf, uint64(len(adds)))
		for _, id := range adds {
			buf = codec.PutCompositeKey(buf, s.corpus.Record(id).CK)
		}
		dels := s.corpus.Dels(vv)
		buf = codec.PutUvarint(buf, uint64(len(dels)))
		for _, id := range dels {
			buf = codec.PutCompositeKey(buf, s.corpus.Record(id).CK)
		}
	}
	buf = codec.PutUvarint(buf, uint64(s.numChunks))
	buf = codec.PutUvarint(buf, uint64(len(s.pending)))
	for _, v := range s.pending {
		buf = codec.PutUvarint(buf, uint64(v))
	}
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
	// BatchPut rather than Put: the manifest is the recovery root, and the
	// batch path is the one durable backends fsync before acknowledging.
	return s.kv.BatchPut(ctx, TableMeta, []kvstore.Entry{{Key: manifestKey, Value: buf}})
}

// Exists reports whether kv holds a persisted store (a manifest entry),
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

// Checkpoint persists the manifest without running placement. Open writes
// nothing, so a durable deployment must checkpoint once after creating a
// fresh store: the manifest is the recovery root that Load replays
// later-acknowledged commits against (flush and SetBranch refresh it as a
// side effect).
func (s *Store) Checkpoint(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.mutable(); err != nil {
		return err
	}
	return s.saveManifest(ctx)
}

// Load reopens a store previously persisted to kv: the manifest restores the
// graph and delta structure, record payloads are recovered from chunk
// entries and the delta store, and the in-memory placement state (locations,
// chunk maps, projections) is rebuilt.
//
// Load also finishes what a crash interrupted. Flush persists in the order
// chunks → projections → manifest → delta-store drain, so a crash leaves at
// most (a) orphan chunk entries past the manifest's chunk count and stale
// projection references to them — skipped, pruned, and (on writable stores)
// deleted here, after which the still-pending versions simply re-flush — and
// (b) leftover delta entries for versions the manifest already placed —
// ignored and cleaned up. Commits acknowledged after the last manifest save
// are replayed from their self-describing delta entries.
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
	// The manifest's placement generation decides which chunk entries are
	// live before the full decode (which needs the chunk contents).
	gen, err := manifestGen(raw)
	if err != nil {
		return fail(err)
	}

	// Recover record payloads and per-chunk state. Which chunks are live is
	// only known once the manifest decodes, so collect everything first.
	// Entries of other generations are debris of an interrupted full
	// repartition — a newer generation whose manifest never committed, or
	// an older one whose cleanup was cut short — and are skipped here and
	// garbage-collected below.
	values := make(map[types.CompositeKey][]byte)
	type chunkState struct {
		recs []types.CompositeKey // slot → composite key
		m    *chunk.Map
	}
	chunks := make(map[chunk.ID]*chunkState)
	var staleGenKeys []string
	var loadErr error
	scanErr := kv.Scan(ctx, TableChunks, func(key string, value []byte) bool {
		g, cid, ok := chunk.ParseKVKey(key)
		if !ok {
			loadErr = fmt.Errorf("%w: bad chunk key %q", types.ErrCorrupt, key)
			return false
		}
		if g != gen {
			staleGenKeys = append(staleGenKeys, key)
			return true
		}
		payload, m, err := decodeChunkEntry(value)
		if err != nil {
			loadErr = err
			return false
		}
		recs, err := chunk.DecodeChunk(payload)
		if err != nil {
			loadErr = err
			return false
		}
		cs := &chunkState{m: m, recs: make([]types.CompositeKey, len(recs))}
		for slot, r := range recs {
			values[r.CK] = r.Value
			cs.recs[slot] = r.CK
		}
		chunks[cid] = cs
		return true
	})
	if scanErr != nil {
		return fail(scanErr)
	}
	if loadErr != nil {
		return fail(loadErr)
	}

	// Delta store: record payloads for pending versions, plus whole entries
	// keyed by version for the replay of unmanifested commits below.
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

	s, err := decodeManifest(raw, cfg, values)
	if err != nil {
		return fail(err)
	}
	s.ownsKV = ownsKV

	// Replay commits acknowledged after the last manifest save: contiguous
	// delta entries starting at the manifest's version count. They rejoin
	// the pending set and place on the next flush.
	manifestVersions := types.VersionID(s.graph.NumVersions())
	for v := manifestVersions; ; v++ {
		e, ok := deltas[v]
		if !ok {
			break
		}
		var got types.VersionID
		if len(e.parents) > 0 && e.parents[0] == types.InvalidVersion {
			got, err = s.graph.AddRoot()
		} else {
			got, err = s.graph.AddVersion(e.parents...)
		}
		if err != nil {
			return fail(fmt.Errorf("%w: replaying commit %d: %v", types.ErrCorrupt, v, err))
		}
		if got != v {
			return fail(fmt.Errorf("%w: replayed commit %d got id %d", types.ErrCorrupt, v, got))
		}
		if err := s.corpus.AddVersionDelta(v, e.delta); err != nil {
			return fail(fmt.Errorf("%w: replaying commit %d: %v", types.ErrCorrupt, v, err))
		}
		s.noteNewKeys(e.delta)
		s.pending = append(s.pending, v)
		s.pendingSet[v] = true
	}

	// Rebuild placement state from the live chunks; entries at or past the
	// manifest's chunk count are orphans of an interrupted flush (their
	// versions are still pending, so nothing is lost by dropping them).
	s.locs = make([]chunk.Loc, s.corpus.NumRecords())
	for i := range s.locs {
		s.locs[i] = chunk.Loc{Chunk: chunk.NoChunk}
	}
	s.maps = make([]*chunk.Map, s.numChunks)
	var orphanChunks []chunk.ID
	for cid, cs := range chunks {
		if uint32(cid) >= s.numChunks {
			orphanChunks = append(orphanChunks, cid)
			continue
		}
		for slot, ck := range cs.recs {
			id, ok := s.corpus.IDForCK(ck)
			if !ok {
				return fail(fmt.Errorf("%w: chunked record %v not in manifest", types.ErrCorrupt, ck))
			}
			s.locs[id] = chunk.Loc{Chunk: cid, Slot: uint32(slot)}
		}
		s.maps[cid] = cs.m
	}
	// Projections are REBUILT from the live chunks' maps and records, not
	// read back from their persisted tables: the persisted rows are
	// overwritten in place by flush and repartition, so a crash between
	// the projection save and the manifest save would pair this manifest's
	// chunks with the next layout's projections — whose references point
	// at chunk ids holding different records, silently shrinking query
	// results (the projections are lossy, so nothing would error). The
	// chunk state decoded above is exactly what flush and Materialize
	// derived the projections from, so the rebuild is both exact and free
	// of that window; the persisted tables remain the paper's
	// architectural artifact (§2.4) and feed nothing during recovery.
	proj := index.New()
	for cid, cs := range chunks {
		if uint32(cid) >= s.numChunks {
			continue // interrupted-flush orphan, dropped above
		}
		for v, bm := range cs.m.Versions {
			if !bm.Empty() {
				proj.ObserveVersionChunk(v, cid)
			}
		}
		for _, ck := range cs.recs {
			proj.AddKeyChunk(ck.Key, cid)
		}
	}
	proj.Normalize()
	s.proj = proj

	// Repair: writable stores drop the crash leftovers so they cannot
	// collide with the chunk ids the next flush assigns — current-gen
	// orphans past the manifest's chunk count, and whole superseded
	// generations. Read-only replicas only pruned in memory, which queries
	// never look past.
	if !cfg.ReadOnly {
		for _, cid := range orphanChunks {
			if err := kv.Delete(ctx, TableChunks, chunk.KVKey(gen, cid)); err != nil {
				return fail(err)
			}
		}
		for _, key := range staleGenKeys {
			if err := kv.Delete(ctx, TableChunks, key); err != nil {
				return fail(err)
			}
		}
		for v := range deltas {
			if v < manifestVersions && !s.pendingSet[v] {
				if err := kv.Delete(ctx, TableDeltaStore, deltaKey(v)); err != nil {
					return fail(err)
				}
			}
		}
	}
	return s, nil
}

// manifestGen parses just the manifest header — format version and
// placement generation — so Load can classify chunk entries before the
// full decode.
func manifestGen(buf []byte) (uint32, error) {
	ver, rest, err := codec.Uvarint(buf)
	if err != nil {
		return 0, err
	}
	if ver != manifestVersion {
		return 0, fmt.Errorf("%w: manifest version %d (this build reads %d; re-initialize the store)",
			types.ErrCorrupt, ver, manifestVersion)
	}
	gen, _, err := codec.Uvarint(rest)
	if err != nil {
		return 0, err
	}
	return uint32(gen), nil
}

// decodeManifest parses the manifest and replays the graph + corpus.
func decodeManifest(buf []byte, cfg Config, values map[types.CompositeKey][]byte) (*Store, error) {
	ver, rest, err := codec.Uvarint(buf)
	if err != nil {
		return nil, err
	}
	if ver != manifestVersion {
		return nil, fmt.Errorf("%w: manifest version %d (want %d)", types.ErrCorrupt, ver, manifestVersion)
	}
	gen, rest, err := codec.Uvarint(rest)
	if err != nil {
		return nil, err
	}
	n, rest, err := codec.Uvarint(rest)
	if err != nil {
		return nil, err
	}

	g := vgraph.New()
	c := corpus.New(g)
	s := &Store{
		cfg:        cfg,
		kv:         cfg.KV,
		graph:      g,
		corpus:     c,
		gen:        uint32(gen),
		pendingSet: make(map[types.VersionID]bool),
		keyStates:  newKeyStateCache(4),
		branches:   make(map[string]types.VersionID),
	}

	for v := uint64(0); v < n; v++ {
		var np uint64
		np, rest, err = codec.Uvarint(rest)
		if err != nil {
			return nil, err
		}
		parents := make([]types.VersionID, np)
		for i := range parents {
			var p uint64
			p, rest, err = codec.Uvarint(rest)
			if err != nil {
				return nil, err
			}
			parents[i] = types.VersionID(p)
		}
		var id types.VersionID
		if np == 0 {
			id, err = g.AddRoot()
		} else {
			id, err = g.AddVersion(parents...)
		}
		if err != nil {
			return nil, err
		}
		if id != types.VersionID(v) {
			return nil, fmt.Errorf("%w: manifest version %d decoded as %d", types.ErrCorrupt, v, id)
		}

		delta := &types.Delta{}
		var na uint64
		na, rest, err = codec.Uvarint(rest)
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < na; i++ {
			var ck types.CompositeKey
			ck, rest, err = codec.CompositeKey(rest)
			if err != nil {
				return nil, err
			}
			val, ok := values[ck]
			if !ok {
				return nil, fmt.Errorf("%w: no payload recovered for %v", types.ErrCorrupt, ck)
			}
			delta.Adds = append(delta.Adds, types.Record{CK: ck, Value: val})
		}
		var nd uint64
		nd, rest, err = codec.Uvarint(rest)
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < nd; i++ {
			var ck types.CompositeKey
			ck, rest, err = codec.CompositeKey(rest)
			if err != nil {
				return nil, err
			}
			delta.Dels = append(delta.Dels, ck)
		}
		if err := c.AddVersionDelta(id, delta); err != nil {
			return nil, err
		}
		s.noteNewKeys(delta)
	}

	nc, rest, err := codec.Uvarint(rest)
	if err != nil {
		return nil, err
	}
	s.numChunks = uint32(nc)
	np, rest, err := codec.Uvarint(rest)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < np; i++ {
		var v uint64
		v, rest, err = codec.Uvarint(rest)
		if err != nil {
			return nil, err
		}
		s.pending = append(s.pending, types.VersionID(v))
		s.pendingSet[types.VersionID(v)] = true
	}
	nb, rest, err := codec.Uvarint(rest)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nb; i++ {
		var name string
		name, rest, err = codec.String(rest)
		if err != nil {
			return nil, err
		}
		var v uint64
		v, rest, err = codec.Uvarint(rest)
		if err != nil {
			return nil, err
		}
		s.branches[name] = types.VersionID(v)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing manifest bytes", types.ErrCorrupt, len(rest))
	}
	return s, nil
}
