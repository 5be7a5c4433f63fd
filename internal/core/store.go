package core

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"

	"rstore/internal/chunk"
	"rstore/internal/codec"
	"rstore/internal/corpus"
	"rstore/internal/kvstore"
	"rstore/internal/types"
	"rstore/internal/vgraph"
)

// Store is the RStore engine instance. Two locks guard it, always taken in
// the order wmu → mu. wmu serialises writers and is held across their
// storage I/O; only its holders change the fields below, so a writer reads
// them under wmu alone. mu guards memory only: a writer write-locks it to
// install what it has made durable, and a plan read-locks it, so a plan
// waits for no writer's I/O.
type Store struct {
	wmu sync.Mutex
	mu  sync.RWMutex
	cfg Config
	kv  *kvstore.Store

	graph  *vgraph.Graph
	corpus *corpus.Corpus

	// Physical placement state. layout holds the record→chunk/slot catalog,
	// the chunk maps and the version→chunks projection; the maps live here, not beside the
	// payloads in the KVS: queries read slot bitmaps from them, flush extends
	// them, and Open folds them back out of the placement log.
	layout *chunk.Layout
	// numPlacements counts the placement records of the current generation.
	numPlacements uint32
	// gen is the placement generation chunk and placement-record KVS keys
	// are prefixed with. The online path appends within the current
	// generation; a full repartition (Materialize) writes the next
	// generation's keys and commits it atomically through the root, so a
	// crash mid-rewrite can never pair an old root with new chunk contents
	// (see chunk.SegmentKey).
	gen uint32
	// pin is the live generation's: queries hold it while they stream, and
	// the superseded generation is deleted when its last holder lets go.
	pin *genPin

	// placed is the number of placed versions: ids below it are partitioned,
	// [placed, NumVersions) are pending in the write store (commits append,
	// flushes place everything pending, so pending is always that suffix).
	placed int

	// failed is set by poison once a placement run has left memory ahead of
	// the persisted root; mutable refuses with it.
	failed error

	// sortedKeys supports range retrieval.
	sortedKeys []types.Key

	branches map[string]types.VersionID
	closed   bool

	// ownsKV marks a private cluster created by withDefaults; Close closes
	// it along with the store.
	ownsKV bool
}

// newStore returns an empty store over cfg.KV.
func newStore(cfg Config, ownsKV bool) *Store {
	g := vgraph.New()
	c := corpus.New(g)
	return &Store{
		cfg:      cfg,
		kv:       cfg.KV,
		graph:    g,
		corpus:   c,
		layout:   chunk.NewLayout(c),
		pin:      newGenPin(),
		branches: map[string]types.VersionID{"main": types.InvalidVersion},
		ownsKV:   ownsKV,
	}
}

// numPending counts the committed versions awaiting placement. Callers hold
// s.wmu or s.mu, as for pending.
func (s *Store) numPending() int { return s.graph.NumVersions() - s.placed }

// pending lists the committed versions awaiting placement, in commit order.
func (s *Store) pending() []types.VersionID {
	out := make([]types.VersionID, 0, s.numPending())
	for v := s.placed; v < s.graph.NumVersions(); v++ {
		out = append(out, types.VersionID(v))
	}
	return out
}

// KV exposes the backing cluster (its stats).
func (s *Store) KV() *kvstore.Store { return s.kv }

// Parents returns a copy of version v's parents, primary first, or nil for
// an unknown version.
func (s *Store) Parents(v types.VersionID) []types.VersionID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.validVersion(v) {
		return nil
	}
	return slices.Clone(s.graph.Parents(v))
}

// Depth returns version v's depth in the version tree (the root's is 1), or 0
// for an unknown version.
func (s *Store) Depth(v types.VersionID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.validVersion(v) {
		return 0
	}
	return s.graph.Depth(v)
}

// NumVersions returns the number of committed versions.
func (s *Store) NumVersions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.graph.NumVersions()
}

// NumChunks returns the number of chunks materialized so far.
func (s *Store) NumChunks() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.layout.NumChunks()
}

// PendingVersions returns how many committed versions await placement.
func (s *Store) PendingVersions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.numPending()
}

// Close flushes pending versions (writable stores only; a poisoned store
// skips it and leaves them to the next Open), marks the store closed, and —
// when the store opened its own private cluster (Config.KV nil) — closes it
// too.
// The final flush runs under the background context: Close is a durability
// point, not a cancellable query. Closing twice is a no-op. Close does not
// wait for cursors that are still streaming: one that has segments left to
// fetch from a cluster Close closed ends with an error wrapping
// types.ErrClosed.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed {
		return nil
	}
	if !s.cfg.ReadOnly && s.failed == nil {
		//lint:rstore-vet ctxfirst: Close is a durability point — the final flush must not inherit a cancelled request context
		if err := s.flush(context.Background()); err != nil {
			return err
		}
	}
	s.closed = true
	if s.ownsKV {
		return s.kv.Close()
	}
	return nil
}

// Commit ingests a new version derived from parent. For the first commit
// parent must be types.InvalidVersion (creating the root). The generated
// version id is returned once the delta is durably in the delta store;
// placement happens in batches (§4). Commit never reuses version ids, even
// for identical contents. A context that ends before the delta is durable
// aborts with no trace; afterwards the commit stands.
func (s *Store) Commit(ctx context.Context, parent types.VersionID, ch Change) (types.VersionID, error) {
	return s.CommitMerge(ctx, []types.VersionID{parent}, ch)
}

// CommitMerge ingests a version with multiple parents; parents[0] is the
// primary parent the change is expressed against (the version-tree edge of
// §2.5). Secondary parents record provenance and are not consulted for
// contents.
func (s *Store) CommitMerge(ctx context.Context, parents []types.VersionID, ch Change) (types.VersionID, error) {
	return s.commit(ctx, parents, func(v types.VersionID) (*types.Delta, error) {
		return s.deriveDelta(parents, v, ch)
	})
}

// commit is the one commit path. Under s.wmu it checks parents against the
// PREDICTED version id v, has derive make v's delta, and writes the delta
// through the batch path, the one durable backends fsync before
// acknowledging; only then does it take s.mu to apply v. A commit that fails
// before, a cancelled write included, leaves no trace (the graph has no
// rollback); once the self-describing entry is durable the commit stands,
// and Open replays it. A commit that fills the batch flushes.
func (s *Store) commit(ctx context.Context, parents []types.VersionID, derive func(v types.VersionID) (*types.Delta, error)) (types.VersionID, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.mutable(); err != nil {
		return types.InvalidVersion, err
	}
	if len(parents) == 0 {
		return types.InvalidVersion, fmt.Errorf("rstore: commit needs a parent")
	}
	v := types.VersionID(s.graph.NumVersions())
	if parents[0] == types.InvalidVersion {
		if s.graph.NumVersions() != 0 {
			return types.InvalidVersion, fmt.Errorf("rstore: root version already exists")
		}
	} else if err := validParents(s.graph, parents); err != nil {
		return types.InvalidVersion, err
	}
	delta, err := derive(v)
	if err != nil {
		return types.InvalidVersion, err
	}
	if err := s.kv.BatchPut(ctx, TableDeltaStore, []kvstore.Entry{{Key: deltaKey(v), Value: encodeDeltaEntry(parents, delta)}}); err != nil {
		return types.InvalidVersion, err
	}

	s.locked(func() {
		if err = s.applyVersion(v, parents, delta); err == nil {
			s.noteNewKeys(delta)
		}
	})
	if err != nil {
		return types.InvalidVersion, err
	}
	if s.cfg.BatchSize > 0 && s.numPending() >= s.cfg.BatchSize {
		// Detached from the caller's cancellation: the commit already
		// stands (its delta is durable), and an interrupted flush poisons
		// the store — a per-request ctx must not be able to do that as a
		// side effect of the commit that happened to close the batch.
		if err := s.flush(context.WithoutCancel(ctx)); err != nil {
			return types.InvalidVersion, err
		}
	}
	return v, nil
}

// applyVersion registers version v with the graph and the corpus — the one
// "apply" of the persist-first rule: every caller has v's delta durable
// (the commit paths just wrote it, Open just read it back). parents[0] ==
// InvalidVersion, or no parents, marks the root.
func (s *Store) applyVersion(v types.VersionID, parents []types.VersionID, delta *types.Delta) error {
	var got types.VersionID
	var err error
	if len(parents) == 0 || parents[0] == types.InvalidVersion {
		got, err = s.graph.AddRoot()
	} else {
		got, err = s.graph.AddVersion(parents...)
	}
	if err != nil {
		return err
	}
	if got != v {
		return fmt.Errorf("rstore: internal: version id drift (%d vs %d)", got, v)
	}
	if err := s.corpus.AddVersionDelta(v, delta); err != nil {
		// Unreachable for validated deltas; a failure here means a
		// corrupted store and must surface loudly.
		return fmt.Errorf("rstore: internal: graph/corpus desync at version %d: %w", v, err)
	}
	return nil
}

// validParents enforces every graph.AddVersion precondition — existing,
// distinct parents — BEFORE the commit's durable delta write. The check
// must be exhaustive: a delta entry written for a commit the graph then
// rejects would sit at exactly the next version id, where Open's replay
// would hit the same rejection and refuse to open the store.
func validParents(g *vgraph.Graph, parents []types.VersionID) error {
	for i, p := range parents {
		if !g.Valid(p) {
			return &types.VersionUnknownError{Version: p}
		}
		for _, q := range parents[:i] {
			if p == q {
				return fmt.Errorf("rstore: commit: duplicate parent %d", p)
			}
		}
	}
	return nil
}

// deriveDelta turns a user Change into a composite-key delta against the
// primary parent, resolving the old record of every touched key (held) and
// of no other.
func (s *Store) deriveDelta(parents []types.VersionID, v types.VersionID, ch Change) (*types.Delta, error) {
	// Deterministic ordering: sorted keys.
	putKeys := slices.Sorted(maps.Keys(ch.Puts))
	held := map[types.Key]types.CompositeKey{}
	if parents[0] == types.InvalidVersion {
		if len(ch.Deletes) != 0 {
			return nil, fmt.Errorf("rstore: root commit cannot delete keys")
		}
	} else {
		var err error
		if held, err = s.holding(parents[0], append(putKeys, ch.Deletes...)); err != nil {
			return nil, fmt.Errorf("rstore: commit: %w", err)
		}
	}

	// Each key deletes at most the one record it holds.
	delta := &types.Delta{
		Adds: slices.Grow([]types.Record(nil), len(putKeys)),
		Dels: slices.Grow([]types.CompositeKey(nil), len(held)),
	}
	for _, k := range putKeys {
		if old, ok := held[k]; ok {
			delta.Dels = append(delta.Dels, old)
		}
		ck := types.CompositeKey{Key: k, Version: v}
		// The corpus keeps the record and a flush codes chunks from it: the
		// value is the store's copy, not the caller's buffer.
		delta.Adds = append(delta.Adds, types.Record{CK: ck, Value: bytes.Clone(ch.Puts[k])})
	}
	for _, k := range ch.Deletes {
		if _, doubled := ch.Puts[k]; doubled {
			return nil, fmt.Errorf("rstore: commit: key %q both put and deleted", string(k))
		}
		old, ok := held[k]
		if !ok {
			return nil, fmt.Errorf("rstore: commit: %w", &types.KeyNotFoundError{Key: k, Version: parents[0]})
		}
		delta.Dels = append(delta.Dels, old)
		delete(held, k)
	}
	return delta, nil
}

// holding resolves the record version v holds of each of keys, as GetRange
// plans one key: the record the pending path from v's placed anchor adds,
// else the anchor's own (locate) unless that path masks it. A key v does not
// hold is absent. Callers hold s.mu, or s.wmu alone.
func (s *Store) holding(v types.VersionID, keys []types.Key) (map[types.Key]types.CompositeKey, error) {
	touched := make(map[types.Key]bool, len(keys))
	for _, k := range keys {
		touched[k] = true
	}
	p, anchor, err := s.planOverlay(v, func(k types.Key) bool { return touched[k] })
	if err != nil {
		return nil, err
	}
	out := make(map[types.Key]types.CompositeKey, len(touched))
	for _, r := range p.adds {
		out[r.CK.Key] = r.CK
	}
	for k := range touched {
		if _, ok := out[k]; ok || anchor == types.InvalidVersion {
			continue
		}
		if rec, _, ok := s.locate(k, anchor); ok && !p.masked[s.corpus.Record(rec).CK] {
			out[k] = s.corpus.Record(rec).CK
		}
	}
	return out, nil
}

// noteNewKeys maintains the sorted key list for range queries: the delta's
// keys the list lacks are sorted once and merged in from the back, so each
// known key moves at most once however many new keys land before it.
func (s *Store) noteNewKeys(delta *types.Delta) {
	var fresh []types.Key
	for _, r := range delta.Adds {
		if _, known := slices.BinarySearch(s.sortedKeys, r.CK.Key); !known {
			fresh = append(fresh, r.CK.Key)
		}
	}
	if len(fresh) == 0 {
		return
	}
	slices.Sort(fresh)
	fresh = slices.Compact(fresh)
	i, j := len(s.sortedKeys)-1, len(fresh)-1
	s.sortedKeys = slices.Grow(s.sortedKeys, len(fresh))[:len(s.sortedKeys)+len(fresh)]
	for k := len(s.sortedKeys) - 1; j >= 0; k-- {
		if i >= 0 && s.sortedKeys[i] > fresh[j] {
			s.sortedKeys[k] = s.sortedKeys[i]
			i--
		} else {
			s.sortedKeys[k] = fresh[j]
			j--
		}
	}
}

// Branch management: lightweight named pointers, VCS-style (§2.4 AS
// commands).

// SetBranch points a branch name at a version once a root naming it is durable.
func (s *Store) SetBranch(ctx context.Context, name string, v types.VersionID) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.mutable(); err != nil {
		return err
	}
	if v != types.InvalidVersion && !s.graph.Valid(v) {
		return &types.VersionUnknownError{Version: v}
	}
	branches := maps.Clone(s.branches)
	branches[name] = v
	if err := s.saveRoot(ctx, branches); err != nil {
		return err
	}
	s.locked(func() { s.branches = branches })
	return nil
}

// locked runs a writer's memory step, the install of what it has made
// durable, with s.mu write-locked. Callers hold s.wmu and not s.mu.
func (s *Store) locked(install func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	install()
}

// mutable reports whether writes are currently allowed. Callers hold s.wmu.
func (s *Store) mutable() error {
	if s.closed {
		return types.ErrClosed
	}
	if s.cfg.ReadOnly {
		return types.ErrReadOnly
	}
	return s.failed
}

// poison records cause as the failure that left this process's memory ahead
// of the persisted root, and returns what the failing call and every later
// mutation answer: types.ErrPoisoned wrapping it.
func (s *Store) poison(cause error) error {
	if s.failed == nil { // the first failure is the one to report
		s.failed = fmt.Errorf("%w: %w", types.ErrPoisoned, cause)
	}
	return s.failed
}

// Tip returns the version a branch points at.
func (s *Store) Tip(name string) (types.VersionID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.branches[name]
	if !ok {
		return types.InvalidVersion, fmt.Errorf("rstore: no branch %q", name)
	}
	return v, nil
}

// Branches lists branch names.
func (s *Store) Branches() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.branches))
	for n := range s.branches {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// deltaKey renders the delta-store key of a version.
func deltaKey(v types.VersionID) string { return fmt.Sprintf("d%08x", uint32(v)) }

// encodeDeltaEntry / decodeDeltaEntry persist a version's parents and delta
// in the write store. Carrying the parents makes each entry self-describing:
// a commit acknowledged after the last flush is replayed by the next Open
// from its delta entry alone, honoring Commit's durability promise. The
// entry is allocated once, at its length: grown by append, an import
// commit's megabytes are copied several times over on the way.
func encodeDeltaEntry(parents []types.VersionID, d *types.Delta) []byte {
	n := codec.UvarintLen(uint64(len(parents))) + codec.DeltaLen(d)
	for _, p := range parents {
		n += codec.UvarintLen(uint64(p))
	}
	return codec.PutDelta(appendParents(make([]byte, 0, n), parents), d)
}

func decodeDeltaEntry(buf []byte) ([]types.VersionID, *types.Delta, error) {
	parents, rest, err := parentsFrom(buf)
	if err != nil {
		return nil, nil, fmt.Errorf("delta entry: %w", err)
	}
	d, err := codec.DecodeDelta(rest)
	if err != nil {
		return nil, nil, err
	}
	return parents, d, nil
}

// appendParents / parentsFrom code a parent list, in a delta entry and in a
// placement record alike: a count, then each id, all uvarints. parentsFrom
// refuses, as types.ErrCorrupt, a count the buffer has no bytes for (each
// parent takes at least one) and an id wider than a VersionID.
func appendParents(buf []byte, parents []types.VersionID) []byte {
	buf = codec.PutUvarint(buf, uint64(len(parents)))
	for _, p := range parents {
		buf = codec.PutUvarint(buf, uint64(p))
	}
	return buf
}

func parentsFrom(buf []byte) ([]types.VersionID, []byte, error) {
	np, rest, err := codec.Uvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if np > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: %d parents in %d bytes", types.ErrCorrupt, np, len(rest))
	}
	parents := make([]types.VersionID, np)
	for i := range parents {
		var p uint64
		if p, rest, err = codec.Uvarint(rest); err != nil {
			return nil, nil, err
		}
		if p > math.MaxUint32 {
			return nil, nil, fmt.Errorf("%w: parent %d", types.ErrCorrupt, p)
		}
		parents[i] = types.VersionID(p)
	}
	return parents, rest, nil
}
