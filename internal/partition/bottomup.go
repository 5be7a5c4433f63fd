package partition

import (
	"slices"
	"sort"

	"rstore/internal/bitset"
	"rstore/internal/intset"
	"rstore/internal/types"
)

// BottomUp is the version-tree partitioner of paper §3.2 (Algorithm 3). It
// processes versions bottom-up; at every version it knows, for each item
// still alive, how many consecutive versions below contain it (the π
// collection), identifies the items that die when moving up (the ψ sets
// α¹…α^p), and chunks them immediately — deepest-spanning sets first — so
// items co-resident in long runs of versions land in the same chunks.
// Partial chunks left by each per-version chunking step are merged at the
// very end to curb fragmentation.
//
// The π sets are computed directly from deltas rather than materialized
// version contents: S¹_i = ∆⁻_{i,c}, S^{j+1}_i = S^j_c \ ∆⁺_{i,c} and
// α^j_i = S^j_c ∩ ∆⁺_{i,c}, which keeps per-version work proportional to
// delta sizes (the O(nβm′) bound of §3.2).
type BottomUp struct {
	// Beta bounds the number of sets retained per subtree (§3.2.1); when a
	// version's collection exceeds Beta, smallest sets are merged into
	// their parent set (the next-shallower run). 0 means unlimited.
	Beta int
	// NoPartialMerge disables the end-of-run merging of per-version
	// partial chunks (§3.2 merges them "to reduce fragmentation"). With it
	// set, every partial becomes its own chunk — an ablation knob that
	// isolates the merge step's storage-vs-span trade-off.
	NoPartialMerge bool
}

// Name implements Algorithm.
func (BottomUp) Name() string { return "BOTTOM-UP" }

// spanSet is one member of a π collection: the items whose run of
// consecutive containing versions, counted from the collection's version
// downward, has the given weight.
type spanSet struct {
	weight int
	items  intset.Set
}

// Partition implements Algorithm.
func (b BottomUp) Partition(in *Input) (*Assignment, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	p := newPacker(in)
	var partials []partial

	// chunkSets packs one per-version chunking step: sets in descending
	// weight order fill fresh chunks; the unfinished tail becomes a partial.
	chunkSets := func(sets []spanSet) {
		sort.SliceStable(sets, func(i, j int) bool { return sets[i].weight > sets[j].weight })
		for _, s := range sets {
			p.addAll(s.items)
		}
		if pt := p.extractPartial(); len(pt.items) > 0 {
			partials = append(partials, pt)
		}
	}

	live := bitset.New(len(in.Items))
	acc := make([]int32, len(in.Items)) // processBranching's, zero between its calls
	var walk func(v types.VersionID) []spanSet
	walk = func(v types.VersionID) []spanSet {
		vi := uint32(v)
		for _, id := range in.Dels[vi] {
			live.Clear(id)
		}
		for _, id := range in.Adds[vi] {
			live.Set(id)
		}
		defer func() {
			for _, id := range in.Adds[vi] {
				live.Clear(id)
			}
			for _, id := range in.Dels[vi] {
				live.Set(id)
			}
		}()

		children := in.Graph.Children(v)
		if len(children) == 0 {
			// Leaf: everything alive here has run length 1.
			snapshot := intset.Set(live.Slice())
			if len(snapshot) == 0 {
				return nil
			}
			return []spanSet{{weight: 1, items: snapshot}}
		}

		var pi []spanSet
		if len(children) == 1 {
			pi = b.processLinear(in, children[0], walk(children[0]), chunkSets)
		} else {
			pi = b.processBranching(in, children, walk, chunkSets, acc)
		}
		pi = b.limitBeta(pi)
		return pi
	}

	root := walk(0)
	// Nothing remains above the root: chunk the entire remaining collection.
	chunkSets(root)

	if b.NoPartialMerge {
		// Ablation: every per-version partial stays its own chunk.
		for _, pt := range partials {
			p.chunks = append(p.chunks, pt.items)
			p.sizes = append(p.sizes, pt.size)
		}
	} else {
		// Merge the per-version partials to reduce fragmentation (§3.2).
		chunks, sizes := mergePartials(in, partials)
		for i, c := range chunks {
			p.chunks = append(p.chunks, c)
			p.sizes = append(p.sizes, sizes[i])
			if sizes[i] > in.Capacity {
				p.overfull++
			}
		}
	}
	packOrphans(in, p)
	return p.finish(), nil
}

// processLinear handles a version with exactly one child c: dead items
// (α sets) are chunked, surviving sets shift one deeper, and ∆⁻ becomes S¹.
func (b BottomUp) processLinear(in *Input, c types.VersionID, childPi []spanSet, chunkSets func([]spanSet)) []spanSet {
	adds := intset.Set(in.Adds[c]) // items in c but not in the parent
	dels := intset.Set(in.Dels[c]) // items in the parent but not in c

	var dead []spanSet
	pi := make([]spanSet, 0, len(childPi)+1)
	for _, s := range childPi {
		d := intset.Intersect(s.items, adds)
		if len(d) > 0 {
			dead = append(dead, spanSet{weight: s.weight, items: d})
		}
		surv := s.items
		if len(d) > 0 {
			surv = intset.Diff(s.items, d)
		}
		if len(surv) > 0 {
			pi = append(pi, spanSet{weight: s.weight + 1, items: surv})
		}
	}
	if len(dead) > 0 {
		chunkSets(dead)
	}
	if len(dels) > 0 {
		// S¹: present at this version but in no version below.
		pi = append(pi, spanSet{weight: 1, items: dels.Clone()})
	}
	return pi
}

// processBranching handles a version with multiple children: surviving items
// accumulate their per-child run lengths (the paper's additive count), dead
// sets from all children with equal weight are chunked together, and S¹ is
// the intersection of the children's ∆⁻ sets. acc is the sum of an item's run
// lengths, indexed by item, all zero on entry and again on return: every child
// is walked before any is accumulated, so a branching below this one has
// cleared acc before this one writes to it.
func (b BottomUp) processBranching(in *Input, children []types.VersionID, walk func(types.VersionID) []spanSet, chunkSets func([]spanSet), acc []int32) []spanSet {
	childPis := make([][]spanSet, len(children))
	for i, c := range children {
		childPis[i] = walk(c)
	}
	var surviving []uint32 // the items of acc that are not zero, in the order they became so
	deadByWeight := make(map[int][]uint32)
	for i, c := range children {
		adds := intset.Set(in.Adds[uint32(c)])
		for _, s := range childPis[i] {
			d := intset.Intersect(s.items, adds)
			if len(d) > 0 {
				deadByWeight[s.weight] = append(deadByWeight[s.weight], d...)
			}
			surv := s.items
			if len(d) > 0 {
				surv = intset.Diff(s.items, d)
			}
			for _, item := range surv {
				if acc[item] == 0 {
					surviving = append(surviving, item)
				}
				acc[item] += int32(s.weight)
			}
		}
	}

	if len(deadByWeight) > 0 {
		dead := make([]spanSet, 0, len(deadByWeight))
		for w, items := range deadByWeight {
			dead = append(dead, spanSet{weight: w, items: intset.FromUnsorted(items)})
		}
		chunkSets(dead)
	}

	// S¹ = ∩ over children of ∆⁻: alive here, absent from every child.
	s1 := intset.Set(in.Dels[uint32(children[0])])
	for _, c := range children[1:] {
		s1 = intset.Intersect(s1, intset.Set(in.Dels[uint32(c)]))
		if len(s1) == 0 {
			break
		}
	}

	// A survivor is in one bucket, once, and weighs at least 2: S¹, which
	// Intersect built afresh, is bucket 1 as it is.
	buckets := make(map[int]intset.Set)
	for _, item := range surviving {
		w := int(acc[item]) + 1
		buckets[w] = append(buckets[w], item)
		acc[item] = 0
	}
	if len(s1) > 0 {
		buckets[1] = s1
	}
	pi := make([]spanSet, 0, len(buckets))
	for w, items := range buckets {
		slices.Sort(items)
		pi = append(pi, spanSet{weight: w, items: items})
	}
	sort.Slice(pi, func(i, j int) bool { return pi[i].weight < pi[j].weight })
	return pi
}

// limitBeta enforces the subtree bound β (§3.2.1): while the collection has
// more than β sets, the smallest set is merged into its parent — the set
// with the next-smaller weight (or the next-larger when the smallest-weight
// set is chosen). Merging trades partitioning quality (run-length
// resolution) for processing cost, the Fig 9 trade-off.
func (b BottomUp) limitBeta(pi []spanSet) []spanSet {
	if b.Beta <= 0 || len(pi) <= b.Beta {
		return pi
	}
	sort.Slice(pi, func(i, j int) bool { return pi[i].weight < pi[j].weight })
	for len(pi) > b.Beta {
		smallest := 0
		for i := 1; i < len(pi); i++ {
			if len(pi[i].items) < len(pi[smallest].items) {
				smallest = i
			}
		}
		target := smallest - 1
		if target < 0 {
			target = 1
		}
		merged := spanSet{
			weight: pi[target].weight,
			items:  intset.Union(pi[target].items, pi[smallest].items),
		}
		pi[target] = merged
		pi = append(pi[:smallest], pi[smallest+1:]...)
	}
	return pi
}

// extractPartial removes the packer's in-progress chunk and returns it as a
// partial, leaving the packer ready for a fresh chunk (each per-version
// chunking step "starts filling a new chunk", §3.2).
func (p *packer) extractPartial() partial {
	pt := partial{items: p.cur, size: p.curSize}
	p.cur = nil
	p.curSize = 0
	return pt
}
