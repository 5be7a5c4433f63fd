// Package corpus maintains the id-space view of a versioned dataset that the
// partitioning algorithms and the query engine operate on: every distinct
// record (composite key) receives a dense uint32 id, and every version's
// tree-edge delta is kept as sorted id sets. This is the in-memory
// counterpart of the paper's record/version bookkeeping: version membership
// is never materialized per version (that would be the full 3-D matrix of
// Fig 3); it is derived from deltas on demand.
package corpus

import (
	"fmt"
	"slices"

	"rstore/internal/bitset"
	"rstore/internal/intset"
	"rstore/internal/types"
	"rstore/internal/vgraph"
)

// Corpus is the registry of records and per-version deltas for one dataset.
// It is not safe for concurrent mutation; readers may share it after loading.
type Corpus struct {
	graph *vgraph.Graph

	recs    []types.Record // by record id
	recKeys []uint32       // by record id: its key id
	byCK    map[types.CompositeKey]uint32

	adds [][]uint32 // by version: record ids added on the tree edge (sorted)
	dels [][]uint32 // by version: record ids removed on the tree edge (sorted)

	keyIDs  map[types.Key]uint32 // key → dense key id
	keyList []types.Key          // key id → key
	keyRecs [][]uint32           // key id → record ids in registration order
}

// New returns an empty corpus over the given graph. Versions must be
// registered with AddVersionDelta in id order as they are added to the graph.
func New(g *vgraph.Graph) *Corpus {
	return &Corpus{
		graph:  g,
		byCK:   make(map[types.CompositeKey]uint32),
		keyIDs: make(map[types.Key]uint32),
	}
}

// Grow sizes the corpus for that many more records and versions, so that a
// loader which knows both counts beforehand registers them without regrowing
// a slice or rehashing the record index on the way. The index is a map, which
// can only be sized while it is empty; the per-key structures grow as keys
// arrive, there being far fewer keys than records.
func (c *Corpus) Grow(records, versions int) {
	c.recs = slices.Grow(c.recs, records)
	c.recKeys = slices.Grow(c.recKeys, records)
	c.adds = slices.Grow(c.adds, versions)
	c.dels = slices.Grow(c.dels, versions)
	if len(c.byCK) == 0 {
		c.byCK = make(map[types.CompositeKey]uint32, records)
	}
}

// Graph returns the underlying version graph.
func (c *Corpus) Graph() *vgraph.Graph { return c.graph }

// NumRecords returns the number of distinct records registered.
func (c *Corpus) NumRecords() int { return len(c.recs) }

// NumVersions returns the number of versions registered.
func (c *Corpus) NumVersions() int { return len(c.adds) }

// NumKeys returns the number of distinct primary keys seen.
func (c *Corpus) NumKeys() int { return len(c.keyList) }

// Record returns the record with the given id.
func (c *Corpus) Record(id uint32) types.Record { return c.recs[id] }

// IDForCK resolves a composite key to its record id.
func (c *Corpus) IDForCK(ck types.CompositeKey) (uint32, bool) {
	id, ok := c.byCK[ck]
	return id, ok
}

// KeyOf returns the dense key id of record id.
func (c *Corpus) KeyOf(id uint32) uint32 { return c.recKeys[id] }

// Key returns the primary key with dense id k.
func (c *Corpus) Key(k uint32) types.Key { return c.keyList[k] }

// KeyRecords returns the record ids carrying the given primary key, in
// registration (commit) order. The slice is shared; callers must not mutate.
func (c *Corpus) KeyRecords(key types.Key) []uint32 {
	ki, ok := c.keyIDs[key]
	if !ok {
		return nil
	}
	return c.keyRecs[ki]
}

// Keys returns all primary keys in dense-id order. The slice is shared.
func (c *Corpus) Keys() []types.Key { return c.keyList }

// Adds returns the sorted record ids added at version v relative to its tree
// parent (for the root: all initial records). Shared slice.
func (c *Corpus) Adds(v types.VersionID) intset.Set { return c.adds[v] }

// Dels returns the sorted record ids removed at version v relative to its
// tree parent. Shared slice.
func (c *Corpus) Dels(v types.VersionID) intset.Set { return c.dels[v] }

// AddVersionDelta registers version v's delta. v must equal NumVersions()
// (versions register densely, in commit order) and must already exist in the
// graph. Added records receive fresh ids unless their composite key is
// already registered (which happens for records arriving through merge
// edges: the tree delta re-adds an existing record); a record first added
// must name v in its composite key, as placement records leave the slots of
// the records a version creates to their composite keys (chunk.Implied).
// Deleted composite keys must be registered.
func (c *Corpus) AddVersionDelta(v types.VersionID, delta *types.Delta) error {
	if int(v) != len(c.adds) {
		return fmt.Errorf("corpus: version %d registered out of order (have %d)", v, len(c.adds))
	}
	if !c.graph.Valid(v) {
		return &types.VersionUnknownError{Version: v}
	}
	if !delta.IsConsistent() {
		return fmt.Errorf("%w: version %d", types.ErrInconsistentDelta, v)
	}
	addIDs := make([]uint32, 0, len(delta.Adds))
	for _, r := range delta.Adds {
		id, ok := c.byCK[r.CK]
		if !ok {
			if r.CK.Version != v {
				return fmt.Errorf("corpus: version %d adds %v, which no version has added and which it does not name", v, r.CK)
			}
			id = uint32(len(c.recs))
			c.recs = append(c.recs, r)
			c.byCK[r.CK] = id
			ki, ok := c.keyIDs[r.CK.Key]
			if !ok {
				ki = uint32(len(c.keyList))
				c.keyIDs[r.CK.Key] = ki
				c.keyList = append(c.keyList, r.CK.Key)
				c.keyRecs = append(c.keyRecs, nil)
			}
			c.recKeys = append(c.recKeys, ki)
			c.keyRecs[ki] = append(c.keyRecs[ki], id)
		}
		addIDs = append(addIDs, id)
	}
	delIDs := make([]uint32, 0, len(delta.Dels))
	for _, ck := range delta.Dels {
		id, ok := c.byCK[ck]
		if !ok {
			return fmt.Errorf("%w: delete of unknown record %v in version %d", types.ErrNotFound, ck, v)
		}
		delIDs = append(delIDs, id)
	}
	c.adds = append(c.adds, intset.FromUnsorted(addIDs))
	c.dels = append(c.dels, intset.FromUnsorted(delIDs))
	return nil
}

// Members materializes the record-id set of version v by walking the tree
// path from the root and applying deltas. Cost is proportional to the total
// delta volume on the path.
func (c *Corpus) Members(v types.VersionID) (intset.Set, error) {
	if !c.graph.Valid(v) || int(v) >= len(c.adds) {
		return nil, &types.VersionUnknownError{Version: v}
	}
	var cur intset.Set
	for _, u := range c.graph.PathFromRoot(v) {
		cur = intset.Union(intset.Diff(cur, c.dels[u]), c.adds[u])
	}
	return cur, nil
}

// TotalBytes returns the total payload volume across all distinct records —
// the "size of unique records" statistic of Table 2.
func (c *Corpus) TotalBytes() int64 {
	var total int64
	for _, r := range c.recs {
		total += int64(r.Size())
	}
	return total
}

// Validate cross-checks structural invariants: every delete targets a record
// present in the parent version, every add is absent from it, and no version
// holds two records of one key. Cost is
// proportional to total delta volume; intended for
// tests and loaders.
func (c *Corpus) Validate() error {
	if err := c.graph.Validate(); err != nil {
		return err
	}
	if c.graph.NumVersions() != len(c.adds) {
		return fmt.Errorf("corpus: %d versions in graph, %d deltas", c.graph.NumVersions(), len(c.adds))
	}
	var firstErr error
	// members holds the walked version's record ids, keys their key ids.
	members, keys := bitset.New(len(c.recs)), bitset.New(len(c.keyList))
	var walk func(v types.VersionID) bool
	walk = func(v types.VersionID) bool {
		for _, id := range c.dels[v] {
			if !members.Contains(id) {
				firstErr = fmt.Errorf("corpus: version %d deletes %v not present in parent", v, c.recs[id].CK)
				return false
			}
			members.Clear(id)
			keys.Clear(c.recKeys[id])
		}
		for _, id := range c.adds[v] {
			if members.Contains(id) {
				firstErr = fmt.Errorf("corpus: version %d adds %v already present", v, c.recs[id].CK)
				return false
			}
			if keys.Contains(c.recKeys[id]) {
				firstErr = fmt.Errorf("corpus: version %d adds %v while it holds another record of %q", v, c.recs[id].CK, c.recs[id].CK.Key)
				return false
			}
			members.Set(id)
			keys.Set(c.recKeys[id])
		}
		for _, ch := range c.graph.Children(v) {
			if !walk(ch) {
				return false
			}
		}
		for _, id := range c.adds[v] {
			members.Clear(id)
			keys.Clear(c.recKeys[id])
		}
		for _, id := range c.dels[v] {
			members.Set(id)
			keys.Set(c.recKeys[id])
		}
		return true
	}
	walk(0)
	return firstErr
}
