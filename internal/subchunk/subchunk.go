// Package subchunk implements paper §3.4: grouping records that share a
// primary key into sub-chunks of at most k records (Algorithm 5), so that
// multiple versions of a large record are stored delta-compressed together,
// and deriving the transformed version tree (Fig 7) on which the chunk
// partitioning algorithms then run with sub-chunks as their items.
//
// Records grouped into a sub-chunk are "connected" in the version tree: the
// group is built around the record originated at the nearest common ancestor
// version, and every other member is delta-encoded against its parent in the
// group (§3.4: "all the sibling records would be delta-ed against their
// common parent").
package subchunk

import (
	"fmt"
	"maps"
	"slices"

	"rstore/internal/chunk"
	"rstore/internal/corpus"
	"rstore/internal/partition"
	"rstore/internal/types"
)

// Result carries the partitioning input built over sub-chunk items plus the
// compression statistics reported in Fig 10.
type Result struct {
	// In is the instance for the partitioning algorithms: items are
	// sub-chunks, the graph is the transformed version tree.
	In *partition.Input
	// RawBytes is the total uncompressed record payload volume.
	RawBytes int64
	// PackedBytes is the total encoded item volume.
	PackedBytes int64
	// DroppedVersions counts versions eliminated as duplicates during the
	// tree transformation (Fig 7: V4, V6).
	DroppedVersions int
	// ItemOf maps record id → item index.
	ItemOf []uint32
	// TransformedOf maps each original version to the transformed version
	// carrying its item set (itself if kept, else the nearest kept
	// ancestor). With k ≤ 1 it is the identity.
	TransformedOf []types.VersionID
	// Keys are the corpus's primary keys, ascending: the order the items
	// were ranked by (chunk.RankAll).
	Keys []types.Key
}

// CompressionRatio returns raw/packed volume — the parallel-axis metric of
// Fig 10.
func (r *Result) CompressionRatio() float64 {
	if r.PackedBytes == 0 {
		return 0
	}
	return float64(r.RawBytes) / float64(r.PackedBytes)
}

// group is a pending connected set of records sharing one primary key,
// represented as a mini-tree: members[0] is the root (ancestor-most record)
// and parents[i] indexes each member's delta parent within the group.
type group struct {
	members []uint32
	parents []int32
}

func (g *group) size() int { return len(g.members) }

// absorb merges child groups under a new root record.
func absorb(root uint32, children []*group) *group {
	out := &group{members: []uint32{root}, parents: []int32{-1}}
	for _, ch := range children {
		off := int32(len(out.members))
		for i, m := range ch.members {
			out.members = append(out.members, m)
			p := ch.parents[i]
			if p == -1 {
				out.parents = append(out.parents, 0) // child root hangs off new root
			} else {
				out.parents = append(out.parents, p+off)
			}
		}
	}
	return out
}

// Build groups the corpus's records into sub-chunks with at most k records
// each and returns the transformed partitioning instance, its items ranked by
// one sort of the corpus's keys. k ≤ 1 disables compression (every record its
// own item, original tree: §2.5 Case 1).
func Build(c *corpus.Corpus, k, capacity int) (*Result, error) {
	if k <= 1 {
		in := partition.RecordInput(c, capacity)
		res := &Result{In: in, ItemOf: make([]uint32, c.NumRecords()), Keys: chunk.RankAll(c, in.Items)}
		for i := range res.ItemOf {
			res.ItemOf[i] = uint32(i)
		}
		res.TransformedOf = make([]types.VersionID, c.NumVersions())
		for v := range res.TransformedOf {
			res.TransformedOf[v] = types.VersionID(v)
		}
		for i := range in.Items {
			res.PackedBytes += int64(in.Items[i].EncodedLen())
		}
		res.RawBytes = rawBytes(c)
		return res, nil
	}

	groups, err := buildGroups(c, k)
	if err != nil {
		return nil, err
	}
	items := make([]chunk.Item, 0, len(groups))
	itemOf := make([]uint32, c.NumRecords())
	var packed int64
	for gi, g := range groups {
		it, err := chunk.NewItem(c, g.members, g.parents)
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		packed += int64(it.EncodedLen())
		for _, m := range g.members {
			itemOf[m] = uint32(gi)
		}
	}
	keys := chunk.RankAll(c, items)

	in, dropped, transformedOf, err := transformTree(c, items, itemOf, capacity)
	if err != nil {
		return nil, err
	}
	return &Result{
		In:              in,
		RawBytes:        rawBytes(c),
		PackedBytes:     packed,
		DroppedVersions: dropped,
		ItemOf:          itemOf,
		TransformedOf:   transformedOf,
		Keys:            keys,
	}, nil
}

func rawBytes(c *corpus.Corpus) int64 {
	var total int64
	for id := 0; id < c.NumRecords(); id++ {
		total += int64(len(c.Record(uint32(id)).Value))
	}
	return total
}

// buildGroups runs Algorithm 5: a bottom-up traversal of the version tree
// where each version gathers its children's pending per-key groups, merges
// them under a record originated here (e=1), passes them through (e=0), and
// emits the largest group as a sub-chunk whenever the pending volume for a
// key reaches k.
func buildGroups(c *corpus.Corpus, k int) ([]*group, error) {
	g := c.Graph()
	n := g.NumVersions()
	if c.NumVersions() != n {
		return nil, fmt.Errorf("subchunk: corpus has %d versions, graph %d", c.NumVersions(), n)
	}
	var emitted []*group

	// originated[v] = record ids whose sub-chunk grouping anchors at v: the
	// tree-delta adds (for merge re-adds, the record anchors where the tree
	// conversion renames it — but only on its first tree appearance).
	seen := make([]bool, c.NumRecords())
	originated := make([][]uint32, n)
	for _, v := range g.PreOrder() {
		for _, id := range c.Adds(v) {
			if !seen[id] {
				seen[id] = true
				originated[v] = append(originated[v], id)
			}
		}
	}

	type keyGroups map[uint32][]*group // key id → pending groups
	pending := make([]keyGroups, n)

	order := g.PostOrder()
	for _, v := range order {
		gather := make(keyGroups)
		for _, ch := range g.Children(v) {
			for ki, gs := range pending[ch] {
				gather[ki] = append(gather[ki], gs...)
			}
			pending[ch] = nil
		}
		// Records originated at v open their own entries.
		hasOwn := make(map[uint32]uint32) // key id → record id originated at v
		for _, id := range originated[v] {
			ki := c.KeyOf(id)
			if _, dup := hasOwn[ki]; dup {
				return nil, fmt.Errorf("subchunk: two records of key %q originate at version %d", c.Key(ki), v)
			}
			hasOwn[ki] = id
			if _, ok := gather[ki]; !ok {
				gather[ki] = nil
			}
		}

		// Keys in id order: the emission order is the item order, and with it
		// the chunk layout — it must not follow map iteration.
		up := make(keyGroups)
		for _, ki := range slices.Sorted(maps.Keys(gather)) {
			own, e := hasOwn[ki]
			var gs []*group
			gs, emitted = reduceKey(gather[ki], e, own, k, emitted)
			if len(gs) > 0 {
				if v == 0 {
					// Nothing above the root: emit everything still pending.
					emitted = append(emitted, gs...)
				} else {
					up[ki] = gs
				}
			}
		}
		pending[v] = up
	}
	return emitted, nil
}

// reduceKey applies Algorithm 5's per-key conditions at one version: gs are
// the pending groups gathered from children, e reports whether a record of
// the key originated here (own), and the returned groups are what propagates
// to the parent.
func reduceKey(gs []*group, e bool, own uint32, k int, emitted []*group) ([]*group, []*group) {
	total := func() int {
		s := 0
		for _, g := range gs {
			s += g.size()
		}
		return s
	}
	popLargest := func() *group {
		li := 0
		for i := 1; i < len(gs); i++ {
			if gs[i].size() > gs[li].size() {
				li = i
			}
		}
		g := gs[li]
		gs = append(gs[:li], gs[li+1:]...)
		return g
	}

	if e {
		// Emit largest sets until the union with our own record fits.
		for total() > k-1 {
			emitted = append(emitted, popLargest())
		}
		if total() == k-1 {
			// Union makes exactly k: construct the sub-chunk now.
			emitted = append(emitted, absorb(own, gs))
			return nil, emitted
		}
		// s ≤ k-2: union and delay until the next ancestor.
		return []*group{absorb(own, gs)}, emitted
	}
	// e = 0: no union possible here; pass groups up, shedding the largest
	// while the pending volume is at least k.
	for total() >= k {
		emitted = append(emitted, popLargest())
	}
	return gs, emitted
}
