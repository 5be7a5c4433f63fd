package core

import (
	"slices"

	"rstore/internal/types"
)

// VersionDiff reports the record-level difference between two versions
// (in the paper's delta terms: ∆⁺ = records in b but not a, ∆⁻ = records in
// a but not b). The versions may lie on different branches; the diff is
// computed over the in-memory corpus's deltas without touching the KVS,
// mirroring how the application server's VCS commands present change sets.
type VersionDiff struct {
	// Added holds composite keys present in b but not a.
	Added []types.CompositeKey
	// Removed holds composite keys present in a but not b.
	Removed []types.CompositeKey
	// Modified holds the primary keys that appear on both sides with
	// different origins (an Added/Removed pair of the same key).
	Modified []types.Key
}

// Diff computes the symmetric difference between versions a and b. It
// composes the tree deltas on the path a → LCA → b (corpus.Adds / Dels are
// against the tree parent), so it costs what the path changed, not what
// the versions hold. A record's membership flips at each delta naming it —
// a merge can re-add a composite key an ancestor deleted — so each record's
// flips are netted: +1 is in b and not a, −1 the reverse.
func (s *Store) Diff(a, b types.VersionID) (*VersionDiff, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.validVersion(a) {
		return nil, &types.VersionUnknownError{Version: a}
	}
	if !s.validVersion(b) {
		return nil, &types.VersionUnknownError{Version: b}
	}
	net := map[uint32]int{}
	lca := s.lcaLocked(a, b)
	walk := func(v types.VersionID, sign int) {
		for ; v != lca; v = s.graph.Parent(v) {
			for _, id := range s.corpus.Adds(v) {
				net[id] += sign
			}
			for _, id := range s.corpus.Dels(v) {
				net[id] -= sign
			}
		}
	}
	walk(b, 1)
	walk(a, -1)
	var added, removed []uint32
	for id, n := range net {
		switch n {
		case 1:
			added = append(added, id)
		case -1:
			removed = append(removed, id)
		}
	}
	slices.Sort(added)
	slices.Sort(removed)

	d := &VersionDiff{}
	removedKeys := make(map[types.Key]bool, len(removed))
	for _, id := range removed {
		ck := s.corpus.Record(id).CK
		d.Removed = append(d.Removed, ck)
		removedKeys[ck.Key] = true
	}
	for _, id := range added {
		ck := s.corpus.Record(id).CK
		d.Added = append(d.Added, ck)
		if removedKeys[ck.Key] {
			d.Modified = append(d.Modified, ck.Key)
		}
	}
	types.SortCompositeKeys(d.Added)
	types.SortCompositeKeys(d.Removed)
	return d, nil
}

// LCA returns the lowest common ancestor of two versions in the version
// tree — the natural merge base for three-way merges built on top of the
// store.
func (s *Store) LCA(a, b types.VersionID) (types.VersionID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.validVersion(a) {
		return types.InvalidVersion, &types.VersionUnknownError{Version: a}
	}
	if !s.validVersion(b) {
		return types.InvalidVersion, &types.VersionUnknownError{Version: b}
	}
	return s.lcaLocked(a, b), nil
}

// lcaLocked is LCA over two valid versions; callers hold s.mu.
func (s *Store) lcaLocked(a, b types.VersionID) types.VersionID {
	g := s.graph
	for g.Depth(a) > g.Depth(b) {
		a = g.Parent(a)
	}
	for g.Depth(b) > g.Depth(a) {
		b = g.Parent(b)
	}
	for a != b {
		a, b = g.Parent(a), g.Parent(b)
	}
	return a
}
