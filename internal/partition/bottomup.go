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
// α^j_i = S^j_c ∩ ∆⁺_{i,c}. The O(nβm′) bound of §3.2 rests on how they are
// held: an index from each item to its set, and each set's weight as an
// offset from one depth counter, so a linear step looks up the items of ∆⁺
// (the α sets), raises the counter (every S^{j+1}) and indexes ∆⁻ (S¹) —
// O(|∆| + #sets), none of the sets copied or intersected. A set is read
// whole only where it must be: at a branching, each child's collection as
// its walk returns, to add up run lengths; in limitBeta's merge; and at the
// root. Items that died since a set was indexed are dropped there.
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
// downward, has the given weight. Where it is chunked its items are sorted.
type spanSet struct {
	weight int
	items  []uint32
}

// Partition implements Algorithm.
func (b BottomUp) Partition(in *Input) (*Assignment, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	w := &bottomUpRun{
		b:     b,
		in:    in,
		p:     newPacker(in),
		live:  bitset.New(len(in.Items)),
		acc:   make([]int32, len(in.Items)),
		setOf: make([]int32, len(in.Items)),
	}
	for i := range w.setOf {
		w.setOf[i] = -1
	}
	w.walk(0)
	// Nothing remains above the root: chunk the entire remaining collection.
	w.chunkSets(w.collect(true))
	return b.finish(in, w.p, w.partials), nil
}

// finish packs the per-version partials — merged to reduce fragmentation
// (§3.2), or each its own chunk with NoPartialMerge — and any item no
// version holds after the chunks the walk filled.
func (b BottomUp) finish(in *Input, p *packer, partials []partial) *Assignment {
	if b.NoPartialMerge {
		for _, pt := range partials {
			p.chunks = append(p.chunks, pt.items)
			p.sizes = append(p.sizes, pt.size)
		}
	} else {
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
	return p.finish()
}

// bottomUpRun is one Bottom-Up walk. The π collection of the version being
// returned from — the active one — lives in an index: setOf names each
// member's set, and a set's weight is level minus its start, so one linear
// step deepens every set at once by raising level. A set's items list its
// members and may list items it has lost since, which setOf no longer points
// to it; they are filtered out where a set is read whole (collect, merge).
type bottomUpRun struct {
	b        BottomUp
	in       *Input
	p        *packer
	partials []partial
	live     *bitset.BitSet // the items of the version being walked
	acc      []int32        // branching's: an item's summed run lengths, zero between its calls
	setOf    []int32        // an item's set in the active π, or -1
	sets     []piSet        // every set made, by id; a dropped one keeps no items
	active   []int32        // the ids of the active π's sets
	level    int
	touched  []int32   // linear's: the sets that lost members
	dead     []spanSet // linear's: their lost members
}

// piSet is one set of the active π collection (or one it dropped).
type piSet struct {
	start int
	items []uint32 // its members among others, in no order
	live  int      // how many members it has
	dead  []uint32 // linear's: the members it lost at this step, in item order
}

// chunkSets packs one per-version chunking step: sets in descending weight
// order fill fresh chunks; the unfinished tail becomes a partial.
func (w *bottomUpRun) chunkSets(sets []spanSet) {
	sort.SliceStable(sets, func(i, j int) bool { return sets[i].weight > sets[j].weight })
	for _, s := range sets {
		w.p.addAll(s.items)
	}
	if pt := w.p.extractPartial(); len(pt.items) > 0 {
		w.partials = append(w.partials, pt)
	}
}

// walk leaves v's π collection active, which it finds empty.
func (w *bottomUpRun) walk(v types.VersionID) {
	vi := uint32(v)
	for _, id := range w.in.Dels[vi] {
		w.live.Clear(id)
	}
	for _, id := range w.in.Adds[vi] {
		w.live.Set(id)
	}
	switch children := w.in.Graph.Children(v); len(children) {
	case 0:
		// Leaf: everything alive here has run length 1.
		if snapshot := w.live.Slice(); len(snapshot) > 0 {
			w.add(1, snapshot)
		}
	case 1:
		w.walk(children[0])
		w.linear(children[0])
		w.limitBeta()
	default:
		w.branching(children)
		w.limitBeta()
	}
	for _, id := range w.in.Adds[vi] {
		w.live.Clear(id)
	}
	for _, id := range w.in.Dels[vi] {
		w.live.Set(id)
	}
}

// add makes items, none of which the active π holds, its set of weight.
// items is the set's own until a merge appends to a copy.
func (w *bottomUpRun) add(weight int, items []uint32) {
	id := int32(len(w.sets))
	w.sets = append(w.sets, piSet{start: w.level - weight, items: items, live: len(items)})
	for _, x := range items {
		w.setOf[x] = id
	}
	w.active = append(w.active, id)
}

// linear turns the active π of c, the one child of its parent, into the
// parent's: the members c adds die (the α sets) and are chunked, every set
// shifts one deeper, and ∆⁻ becomes S¹. It reads c's delta and the active
// sets' ids, nothing else.
func (w *bottomUpRun) linear(c types.VersionID) {
	touched := w.touched[:0]
	for _, x := range w.in.Adds[c] { // items in c but not in the parent
		id := w.setOf[x]
		if id < 0 {
			continue
		}
		w.setOf[x] = -1
		s := &w.sets[id]
		if len(s.dead) == 0 {
			touched = append(touched, id)
		}
		s.dead = append(s.dead, x)
		s.live--
	}
	if len(touched) > 0 {
		dead := w.dead[:0]
		for _, id := range touched {
			dead = append(dead, spanSet{weight: w.level - w.sets[id].start, items: w.sets[id].dead})
		}
		w.chunkSets(dead)
		for _, id := range touched {
			w.sets[id].dead = w.sets[id].dead[:0]
		}
		w.active = slices.DeleteFunc(w.active, func(id int32) bool {
			if w.sets[id].live > 0 {
				return false
			}
			w.sets[id] = piSet{}
			return true
		})
		w.dead = dead[:0]
	}
	w.touched = touched[:0]
	w.level++
	if dels := w.in.Dels[c]; len(dels) > 0 { // items in the parent but not in c
		// S¹: present at this version but in no version below.
		w.add(1, dels)
	}
}

// collect takes the active π out of the index as explicit sets, their items
// sorted if sorted is set, and leaves it empty.
func (w *bottomUpRun) collect(sorted bool) []spanSet {
	out := make([]spanSet, 0, len(w.active))
	for _, id := range w.active {
		s := &w.sets[id]
		if s.live == 0 {
			continue
		}
		items := make([]uint32, 0, s.live)
		for _, x := range s.items {
			if w.setOf[x] == id { // a member, listed the first time
				w.setOf[x] = -1
				items = append(items, x)
			}
		}
		if sorted {
			slices.Sort(items)
		}
		out = append(out, spanSet{weight: w.level - s.start, items: items})
		*s = piSet{}
	}
	w.active = w.active[:0]
	return out
}

// branching makes the active π of a version with several children: each
// child's collection is walked, loses the items the child adds, which die
// here, and is taken out of the index before the next child is walked.
// Surviving items accumulate their per-child run lengths (the paper's
// additive count), dead sets from all children with equal weight are chunked
// together once every child is walked, and S¹ is the intersection of the
// children's ∆⁻ sets. acc is zero on entry and again on return: a branching
// below this one runs while no child's run lengths are in it.
func (w *bottomUpRun) branching(children []types.VersionID) {
	childPis := make([][]spanSet, len(children))
	deadByWeight := make(map[int][]uint32)
	for i, c := range children {
		w.walk(c)
		for _, x := range w.in.Adds[c] {
			if id := w.setOf[x]; id >= 0 {
				weight := w.level - w.sets[id].start
				deadByWeight[weight] = append(deadByWeight[weight], x)
				w.setOf[x] = -1
				w.sets[id].live--
			}
		}
		childPis[i] = w.collect(false)
	}
	if len(deadByWeight) > 0 {
		dead := make([]spanSet, 0, len(deadByWeight))
		for weight, items := range deadByWeight {
			dead = append(dead, spanSet{weight: weight, items: intset.FromUnsorted(items)})
		}
		w.chunkSets(dead)
	}

	var surviving []uint32 // the items of acc that are not zero, in the order they became so
	maxWeight := 1         // bounds a survivor's: 1 + the children's heaviest sets
	for _, pi := range childPis {
		heaviest := 0
		for _, s := range pi {
			heaviest = max(heaviest, s.weight)
		}
		maxWeight += heaviest
		for _, s := range pi {
			for _, item := range s.items {
				if w.acc[item] == 0 {
					surviving = append(surviving, item)
				}
				w.acc[item] += int32(s.weight)
			}
		}
	}

	// S¹ = ∩ over children of ∆⁻: alive here, absent from every child.
	s1 := intset.Set(w.in.Dels[uint32(children[0])])
	for _, c := range children[1:] {
		s1 = intset.Intersect(s1, intset.Set(w.in.Dels[uint32(c)]))
		if len(s1) == 0 {
			break
		}
	}

	// A survivor is in one bucket, once, and weighs at least 2; the buckets
	// are cut from one array, counted by weight first. A set's items need
	// no order: only the root's are chunked as a set lists them, and
	// collect sorts those.
	next := make([]int, maxWeight+2) // next[weight]: where its next item goes
	for _, item := range surviving {
		next[w.acc[item]+2]++
	}
	for weight := 2; weight < len(next); weight++ {
		next[weight] += next[weight-1]
	}
	byWeight := make([]uint32, len(surviving))
	for _, item := range surviving {
		weight := w.acc[item] + 1
		byWeight[next[weight]] = item
		next[weight]++
		w.acc[item] = 0
	}
	for weight, start := 2, 0; weight <= maxWeight; weight++ {
		if end := next[weight]; end > start {
			w.add(weight, byWeight[start:end:end])
			start = end
		}
	}
	if len(s1) > 0 {
		w.add(1, s1)
	}
}

// limitBeta enforces the subtree bound β (§3.2.1): while the collection has
// more than β sets, the smallest set is merged into its parent — the set
// with the next-smaller weight (or the next-larger when the smallest-weight
// set is chosen). Merging trades partitioning quality (run-length
// resolution) for processing cost, the Fig 9 trade-off.
func (w *bottomUpRun) limitBeta() {
	if w.b.Beta <= 0 || len(w.active) <= w.b.Beta {
		return
	}
	sets := w.sets
	sort.Slice(w.active, func(i, j int) bool { return sets[w.active[i]].start > sets[w.active[j]].start })
	for len(w.active) > w.b.Beta {
		smallest := 0
		for i := 1; i < len(w.active); i++ {
			if sets[w.active[i]].live < sets[w.active[smallest]].live {
				smallest = i
			}
		}
		target := smallest - 1
		if target < 0 {
			target = 1
		}
		w.merge(w.active[smallest], w.active[target])
		w.active = slices.Delete(w.active, smallest, smallest+1)
	}
}

// merge moves the members of set from into set to, which keeps its weight:
// the one other place a set is read whole.
func (w *bottomUpRun) merge(from, to int32) {
	src, dst := &w.sets[from], &w.sets[to]
	items := slices.Clip(dst.items) // not the corpus's delta, nor collect's
	for _, x := range src.items {
		if w.setOf[x] == from {
			w.setOf[x] = to
			items = append(items, x)
		}
	}
	dst.items, dst.live = items, dst.live+src.live
	*src = piSet{}
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
