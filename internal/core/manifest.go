package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
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

// manifestVersion guards the on-disk format. Version 13 lets a flush copy a
// record forward: a composite key may sit in more than one chunk of a
// generation, its first its creation (chunk.Implied), and a placement record
// may state a move — a version that takes a record out of one chunk and puts it
// into another, which is no change of its records (deltaFromDiffs). A
// version-12 build would refuse the second chunk's record as assigned to two
// chunks, so it is refused here instead. A version-8 to version-12 store is
// read as it is, and becomes version 13 with the next root it writes. Version
// 12 let a segment be keyed: its anchor spells its first item's key, and every
// later value whose key has that width is coded against the anchor with its own
// key written over the anchor's, which a version-11 build would decode against
// the anchor as it is, so it is refused there; its segments mark it with
// another value of their first byte (chunk/runs.go). Version 11 let a placement
// record leave out of a version's diffs the slots composite keys imply — the
// records whose composite keys name the version, and the records of their keys
// its tree parent holds (chunk.Implied) — which a version-10 build would fold
// into versions that lack their own records; a version-8 to version-10 store's
// diffs state every slot, the implied ones included, and the fold adds those
// once. Version 10 let a segment's items leave out what its code implies — a
// template user's empty heads and body length, a key's suffix length where
// every key of the segment has one width — and marks that with another value of
// the segment's first byte (chunk/runs.go), which a version-9 build does not
// know. Version 9 let a segment state the run heads most of its values share
// once, as its template; version 8 packed the literals of a segment's run lists
// at the width of the segment's own alphabet, which the segment states in that
// byte; version 7 stored a segment's values as run lists of bytes against its
// first, where version 6 wrote every value raw; version 6 stated a version's
// slot bitmaps in the placement records as diffs against its tree parent's,
// where version 5 wrote them whole; version 5 stored a chunk as key-ordered,
// front-coded segment values (chunk.SegmentKey) in place of one payload;
// version 4 took the versions' composite-key deltas out of the placement
// records, whose slot bitmaps already imply them; a version-3 store wrote both,
// a version-2 store carried chunk maps inside the chunk values, version 1 used
// unprefixed chunk keys, and all seven must be re-initialized, not misread.
const manifestVersion = 13

// oldestReadable is the oldest manifest version this build reads: every
// segment of a version-8 to version-12 store is one a version-13 build could
// have written, and every placement record one it reads as it was meant.
const oldestReadable = 8

// placementKey renders the key of the idx-th placement record of a
// generation; like chunk.SegmentKey it carries the generation, so a full
// repartition writes a fresh log beside the live one.
func placementKey(gen, idx uint32) string { return fmt.Sprintf("g%08x-p%08x", gen, idx) }

// saveRoot persists the root: format version, placement generation, and how
// much of that generation is committed — chunk count, placement-record
// count, placed-version count — plus branches, the map it is given (SetBranch
// writes the one it is about to install). Its write is the commit point of
// every flush and repartition; everything it counts is already durable.
// Called under s.wmu.
func (s *Store) saveRoot(ctx context.Context, branches map[string]types.VersionID) error {
	buf := codec.PutUvarint(nil, manifestVersion)
	buf = codec.PutUvarint(buf, uint64(s.gen))
	buf = codec.PutUvarint(buf, uint64(s.layout.NumChunks()))
	buf = codec.PutUvarint(buf, uint64(s.numPlacements))
	buf = codec.PutUvarint(buf, uint64(s.placed))
	names := make([]string, 0, len(branches))
	for name := range branches {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = codec.PutUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = codec.PutString(buf, name)
		buf = codec.PutUvarint(buf, uint64(branches[name]))
	}
	// BatchPut rather than Put: the root is the recovery root, and the
	// batch path is the one durable backends fsync before acknowledging.
	return s.kv.BatchPut(ctx, TableMeta, []kvstore.Entry{{Key: manifestKey, Value: buf}})
}

// loadRoot parses a root into s (generation, counts, branches) and returns
// its chunk count, which the layout must reach once the log is folded. A
// count, generation or branch tip wider than 32 bits is types.ErrCorrupt, as
// is a branch count the root has no bytes for (a branch takes a byte at least).
func (s *Store) loadRoot(buf []byte) (numChunks uint32, err error) {
	ver, rest, err := codec.Uvarint(buf)
	if err != nil {
		return 0, err
	}
	if ver < oldestReadable || ver > manifestVersion {
		return 0, fmt.Errorf("%w: manifest version %d (this build reads %d to %d; re-initialize the store)",
			types.ErrCorrupt, ver, oldestReadable, manifestVersion)
	}
	var fields [5]uint64 // gen, chunks, placement records, placed versions, branches
	for i := range fields {
		if fields[i], rest, err = codec.Uvarint(rest); err != nil {
			return 0, err
		}
		if fields[i] > math.MaxUint32 {
			return 0, fmt.Errorf("%w: manifest field %d is %d", types.ErrCorrupt, i, fields[i])
		}
	}
	if fields[4] > uint64(len(rest)) {
		return 0, fmt.Errorf("%w: manifest counts %d branches in %d bytes", types.ErrCorrupt, fields[4], len(rest))
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
		if v > math.MaxUint32 {
			return 0, fmt.Errorf("%w: branch %q points at version %d", types.ErrCorrupt, name, v)
		}
		s.branches[name] = types.VersionID(v)
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("%w: %d trailing manifest bytes", types.ErrCorrupt, len(rest))
	}
	return uint32(fields[1]), nil
}

// savePlacement writes placement record idx of generation gen: the parent
// edges of versions [first, NumVersions), and what those versions change in
// the chunk maps — per chunk the record introduces, its slot count, and per
// chunk in which one of its versions differs from its tree parent in a slot
// composite keys do not imply, per such version those slots of the XOR of its
// slot bitmap with the parent's (chunk.Layout.TakeDelta): a merge's re-add of
// a record whose composite key names another version, and a delete of a key
// the version does not put again. The slots of the records a version creates,
// whose composite keys name it, and of the records of those keys its parent
// holds are implied and left out (chunk.Implied); a version a chunk does not
// list differs there from its parent in the implied slots alone. What the
// record states and what the keys imply are a version's tree-edge delta — a
// slot is an add where the version holds it, a delete where the parent does
// (applyPlacement); the record values live in the chunks. Online flushes
// append one record per batch; a full repartition writes one record holding
// everything. The record only counts once the root does (publish).
func (s *Store) savePlacement(ctx context.Context, gen, idx uint32, first types.VersionID, diffs map[chunk.ID]*chunk.Map) error {
	buf := codec.PutUvarint(nil, uint64(first))
	buf = codec.PutUvarint(buf, uint64(s.graph.NumVersions()-int(first)))
	for v := first; int(v) < s.graph.NumVersions(); v++ {
		buf = appendParents(buf, s.graph.Parents(v))
	}
	cids := make([]chunk.ID, 0, len(diffs))
	for cid := range diffs {
		cids = append(cids, cid)
	}
	slices.Sort(cids) // new chunks must fold in id order
	buf = codec.PutUvarint(buf, uint64(len(cids)))
	for _, cid := range cids {
		buf = codec.PutUvarint(buf, uint64(cid))
		buf = codec.PutBytes(buf, diffs[cid].AppendBinary(nil))
	}
	return s.kv.BatchPut(ctx, TablePlacement, []kvstore.Entry{{Key: placementKey(gen, idx), Value: buf}})
}

// applyPlacement folds one placement record into a store being loaded.
// chunks[c] is what chunk c's segments decoded to, and implied indexes their
// composite keys. The record's diffs are decoded first, each against the slot
// count of the chunk it indexes, and the chunks it introduces are opened;
// each of its versions, in id order — parents first — then gets the slots
// composite keys imply ORed into its diffs (chunk.Implied.Or: the records
// whose keys name it and those their keys held in its parent; a v8–v10
// record states them already, and ORing them changes nothing), its bitmaps
// back from its parent's and those diffs (chunk.Layout.ApplyDiffs) and, read
// off the same diffs, the tree-edge delta that extends the graph and the
// corpus; only then do the new chunks' records, which the versions just
// registered, take their places.
func (s *Store) applyPlacement(buf []byte, chunks []chunk.Stored, implied *chunk.Implied) error {
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
		if parents[i], rest, err = parentsFrom(rest); err != nil {
			return fmt.Errorf("version %d: %w", first+uint64(i), err)
		}
	}

	nm, rest, err := codec.Uvarint(rest)
	if err != nil {
		return err
	}
	if nm > uint64(len(rest)) {
		return fmt.Errorf("%w: placement record counts %d chunk maps in %d bytes", types.ErrCorrupt, nm, len(rest))
	}
	// diffs[i] lists version first+i's diffs, ascending by chunk — the order
	// the chunk maps arrive in.
	diffs := make([][]chunk.Slots, n)
	opened := chunk.ID(s.layout.NumChunks()) // the record's new chunks are [opened, NumChunks)
	last := -1
	for ; nm > 0; nm-- {
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
		if int(cid) <= last {
			return fmt.Errorf("%w: placement record lists chunk %d after chunk %d", types.ErrCorrupt, cid, last)
		}
		last = int(cid)
		m, err := chunk.DecodeMap(enc, len(chunks[cid].Records))
		if err != nil {
			return err
		}
		if int(cid) >= s.layout.NumChunks() {
			if err := s.layout.RestoreChunk(chunk.ID(cid), chunks[cid]); err != nil {
				return err
			}
		}
		for v, bits := range m.Versions {
			if uint64(v) < first || uint64(v)-first >= n {
				return fmt.Errorf("%w: placement record of versions [%d, %d) holds a diff of version %d", types.ErrCorrupt, first, first+n, v)
			}
			diffs[uint64(v)-first] = append(diffs[uint64(v)-first], chunk.Slots{Chunk: chunk.ID(cid), Bits: bits})
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing placement-record bytes", types.ErrCorrupt, len(rest))
	}

	for i, vdiffs := range diffs {
		v, parent := types.VersionID(first)+types.VersionID(i), types.InvalidVersion
		if len(parents[i]) > 0 {
			if parent = parents[i][0]; parent >= v {
				return fmt.Errorf("%w: version %d placed before its parent %d", types.ErrCorrupt, v, parent)
			}
		}
		vdiffs, err := implied.Or(s.layout, v, parent, vdiffs)
		if err != nil {
			return err
		}
		if err := s.layout.ApplyDiffs(v, parent, vdiffs); err != nil {
			return err
		}
		delta, err := s.deltaFromDiffs(v, vdiffs, chunks, implied)
		if err != nil {
			return err
		}
		if err := s.replayVersion(v, parents[i], delta); err != nil {
			return err
		}
	}
	for cid := opened; int(cid) < s.layout.NumChunks(); cid++ {
		if err := s.layout.BindRecords(cid, chunks[cid]); err != nil {
			return err
		}
	}
	return nil
}

// deltaFromDiffs reads version v's tree-edge delta off its diffs, once the
// layout holds its bitmaps: a slot of a diff is in v's bitmap or in its
// parent's, never both — an add where v holds it, a delete otherwise — and
// resolves through the chunks' decoded records, which every slot of a diff
// indexes (chunk.DecodeMap saw to it). Adds and deletes each come out in
// ascending (chunk, slot) order, which is the order Open hands out record ids
// in. Where a composite key sits in more than one chunk (implied.Copies), v
// must hold it at one of them at most, or the store is corrupt, and an add of
// it at one slot beside a delete of it at another is a move: v reads the
// record from another copy, and holds what its parent held.
func (s *Store) deltaFromDiffs(v types.VersionID, diffs []chunk.Slots, chunks []chunk.Stored, implied *chunk.Implied) (*types.Delta, error) {
	delta := &types.Delta{}
	var copied []types.CompositeKey // of the adds, those in more than one chunk
	for _, d := range diffs {
		held := s.layout.Map(d.Chunk).SlotsOf(v) // nil: v emptied the chunk
		d.Bits.ForEach(func(slot uint32) bool {
			r := chunks[d.Chunk].Records[slot]
			if held != nil && held.Contains(slot) {
				delta.Adds = append(delta.Adds, r)
				if implied.IsCopy(chunk.Loc{Chunk: d.Chunk, Slot: slot}) {
					copied = append(copied, r.CK)
				}
			} else {
				delta.Dels = append(delta.Dels, r.CK)
			}
			return true
		})
	}
	if len(copied) == 0 {
		return delta, nil
	}
	moved := map[types.CompositeKey]bool{}
	for _, ck := range copied {
		held := 0
		for _, loc := range implied.Copies(ck) {
			if int(loc.Chunk) < s.layout.NumChunks() {
				if bits := s.layout.Map(loc.Chunk).SlotsOf(v); bits != nil && bits.Contains(loc.Slot) {
					held++
				}
			}
		}
		if held > 1 {
			return nil, fmt.Errorf("%w: version %d holds record %v in %d chunks", types.ErrCorrupt, v, ck, held)
		}
		moved[ck] = false
	}
	delta.Dels = slices.DeleteFunc(delta.Dels, func(ck types.CompositeKey) bool {
		_, ok := moved[ck]
		if ok {
			moved[ck] = true
		}
		return ok
	})
	delta.Adds = slices.DeleteFunc(delta.Adds, func(r types.Record) bool { return moved[r.CK] })
	return delta, nil
}

// replayVersion re-registers version v — from a placement record or a
// delta-store entry — with a store being loaded.
func (s *Store) replayVersion(v types.VersionID, parents []types.VersionID, delta *types.Delta) error {
	if err := s.applyVersion(v, parents, delta); err != nil {
		return fmt.Errorf("%w: replaying version %d: %v", types.ErrCorrupt, v, err)
	}
	return nil
}

// Open opens the store kept in cfg.KV; it is the only way to get a Store.
// ctx bounds the open itself, not the Store's lifetime.
//
// A cluster with no root and no chunk segment or placement record holds a
// new store: Open replays its delta entries — the acknowledged commits of a
// crash before the first flush — and a writable Open then writes the root,
// so that every later commit replays against it; a ReadOnly one writes
// nothing. No root beside segments or placement records is types.ErrCorrupt,
// and nothing is deleted: the root's replicas may only be down, and every
// key would read as debris against the zero root.
//
// Otherwise Open reopens what the root commits: it names the placement
// generation and how much of it is committed, each chunk's segment entries
// decode and join to its records in slot order, their composite keys are
// indexed once (chunk.NewImplied), and the generation's placement records
// fold in order (applyPlacement): the chunks a record introduces open
// (chunk.Layout.RestoreChunk), each version's diffs — what the record states
// and what composite keys imply — rebuild its bitmaps from its parent's
// (chunk.Layout.ApplyDiffs) and its delta, read off the same diffs, goes into
// the graph and the corpus, and the
// new chunks' records take their slots (chunk.Layout.BindRecords), filling
// the locations, chunk maps and the projection. Record ids are handed out in
// that fold's order and are local to the process; nothing persisted names
// one. A branch tip naming a version the fold and the replay below did not
// load is types.ErrCorrupt.
//
// Open also finishes what a crash interrupted. Flush persists in the order
// chunks → placement record → root → delta-store drain, so a crash leaves at
// most (a) chunk entries and a placement record past the root's counts —
// skipped and (on writable stores) deleted here, after which the
// still-pending versions simply re-flush under the same ids — and (b)
// leftover delta entries for versions the root already placed — never
// decoded, and deleted by a writable store. Commits acknowledged after the
// last flush are replayed from their self-describing delta entries: the
// contiguous run starting at the root's placed-version count, the only
// entries Open decodes.
func Open(ctx context.Context, cfg Config) (*Store, error) {
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
	fresh := errors.Is(err, types.ErrNotFound)
	if err != nil && !fresh {
		return fail(fmt.Errorf("rstore: open: %w", err))
	}
	s := newStore(cfg, ownsKV)
	var numChunks uint32
	if !fresh {
		if numChunks, err = s.loadRoot(raw); err != nil {
			return fail(err)
		}
	}

	// Recover record payloads and slot layouts from the live chunks' segments.
	// Entries of other generations are debris of an interrupted full
	// repartition — a newer generation whose root never committed, or an older
	// one whose cleanup was cut short — and segments of chunks at or past the
	// root's chunk count are orphans of an interrupted flush, which may have
	// written some segments of a chunk and not others; both are skipped here
	// and garbage-collected below.
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
	if err := cmp.Or(scanErr, loadErr); err != nil {
		return fail(err)
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

	// Delta store: the entries of unplaced versions, still encoded, for the
	// replay below, which decodes only the ones it replays; an entry of a
	// placed version is a crash's leftover, kept by key only and deleted
	// unread.
	deltas := make(map[types.VersionID][]byte)
	var placedDeltas []string
	scanErr = kv.Scan(ctx, TableDeltaStore, func(key string, value []byte) bool {
		var v uint32
		if _, err := fmt.Sscanf(key, "d%08x", &v); err != nil {
			loadErr = fmt.Errorf("%w: bad delta key %q", types.ErrCorrupt, key)
			return false
		}
		if int(v) < s.placed {
			placedDeltas = append(placedDeltas, key)
		} else {
			deltas[types.VersionID(v)] = value
		}
		return true
	})
	if err := cmp.Or(scanErr, loadErr); err != nil {
		return fail(err)
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
	if err := cmp.Or(scanErr, loadErr); err != nil {
		return fail(err)
	}
	if fresh && len(debrisChunks)+len(debrisPlacements) > 0 {
		return fail(fmt.Errorf("%w: no root, but %d chunk segments and %d placement records",
			types.ErrCorrupt, len(debrisChunks), len(debrisPlacements)))
	}
	// The fold registers every chunked record once and every placed version:
	// size the corpus for them before it starts.
	records := 0
	for _, st := range chunks {
		records += len(st.Records)
	}
	s.corpus.Grow(records, s.placed+len(deltas))
	implied := chunk.NewImplied(chunks)
	for idx, rec := range placements {
		if rec == nil {
			return fail(fmt.Errorf("%w: placement record %s missing", types.ErrCorrupt, placementKey(s.gen, uint32(idx))))
		}
		if err := s.applyPlacement(rec, chunks, implied); err != nil {
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
		raw, ok := deltas[v]
		if !ok {
			break
		}
		parents, delta, err := decodeDeltaEntry(raw)
		if err != nil {
			return fail(err)
		}
		if err := s.replayVersion(v, parents, delta); err != nil {
			return fail(err)
		}
	}
	for name, v := range s.branches {
		if v != types.InvalidVersion && !s.graph.Valid(v) {
			return fail(fmt.Errorf("%w: branch %q points at version %d, the store holds %d", types.ErrCorrupt, name, v, s.graph.NumVersions()))
		}
	}
	s.sortedKeys = slices.Sorted(slices.Values(s.corpus.Keys()))

	// Repair: writable stores drop the crash leftovers — orphan chunks and
	// records (the next flush reuses their ids), whole superseded or
	// uncommitted generations, and delta entries of placed versions.
	// Read-only replicas only skipped them in memory, which queries never
	// look past.
	if !cfg.ReadOnly {
		for _, debris := range []struct {
			table string
			keys  []string
		}{{TableChunks, debrisChunks}, {TablePlacement, debrisPlacements}, {TableDeltaStore, placedDeltas}} {
			if err := deleteKeys(ctx, kv, debris.table, debris.keys); err != nil {
				return fail(err)
			}
		}
		if fresh {
			if err := s.saveRoot(ctx, s.branches); err != nil {
				return fail(err)
			}
		}
	}
	return s, nil
}

// Load is Open, under the name the benchmark module still calls.
func Load(ctx context.Context, cfg Config) (*Store, error) { return Open(ctx, cfg) }
