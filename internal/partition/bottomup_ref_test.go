package partition

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"rstore/internal/bitset"
	"rstore/internal/chunk"
	"rstore/internal/intset"
	"rstore/internal/types"
	"rstore/internal/vgraph"
	"rstore/internal/workload"
)

// referenceBottomUp is Bottom-Up as it was written first: every version
// intersects and copies each set of its child's π collection (processLinear)
// and every branching rebuilds the collection from its children's. It costs
// O(#items alive) a version, not O(|Δ|), and is kept only so that BottomUp can
// be held to its exact output (TestBottomUpMatchesReference, FuzzBottomUp).
type referenceBottomUp BottomUp

// Partition partitions in as BottomUp does.
func (b referenceBottomUp) Partition(in *Input) (*Assignment, error) {
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

	return BottomUp(b).finish(in, p, partials), nil
}

// processLinear handles a version with exactly one child c: dead items
// (α sets) are chunked, surviving sets shift one deeper, and ∆⁻ becomes S¹.
func (b referenceBottomUp) processLinear(in *Input, c types.VersionID, childPi []spanSet, chunkSets func([]spanSet)) []spanSet {
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
func (b referenceBottomUp) processBranching(in *Input, children []types.VersionID, walk func(types.VersionID) []spanSet, chunkSets func([]spanSet), acc []int32) []spanSet {
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
func (b referenceBottomUp) limitBeta(pi []spanSet) []spanSet {
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

// randomInput builds an instance straight from random deltas: versions
// versions in a tree whose branches run about depth versions deep (a chain
// when depth ≥ versions), each deleting and adding a few items against its
// parent. With readds, a version also adds items a version elsewhere in the
// tree holds, as a merge does once the DAG is turned into a tree (§2.5), so
// an item dies and comes back along one branch, or is added in two.
func randomInput(seed int64, versions, depth int, readds bool) *Input {
	rng := rand.New(rand.NewSource(seed))
	g := vgraph.New()
	g.AddRoot()
	var items []chunk.Item
	newItem := func() uint32 {
		items = append(items, sizedItem(16+rng.Intn(300)))
		return uint32(len(items) - 1)
	}
	holds := []map[uint32]bool{{}}
	adds, dels := [][]uint32{nil}, [][]uint32{nil}
	for range 8 + rng.Intn(40) {
		id := newItem()
		holds[0][id] = true
		adds[0] = append(adds[0], id)
	}
	for v := 1; v < versions; v++ {
		parent := v - 1
		if depth < versions && rng.Intn(max(depth, 1)) == 0 {
			parent = rng.Intn(v)
		}
		if _, err := g.AddVersion(types.VersionID(parent)); err != nil {
			panic(err)
		}
		hold := maps.Clone(holds[parent])
		var add, del []uint32
		for id := range hold {
			if rng.Intn(8) == 0 {
				del = append(del, id)
			}
		}
		for _, id := range del {
			delete(hold, id)
		}
		for range rng.Intn(6) {
			id := newItem()
			hold[id] = true
			add = append(add, id)
		}
		if readds {
			for range rng.Intn(4) {
				other := holds[rng.Intn(v)]
				for id := range other {
					if !hold[id] {
						hold[id] = true
						add = append(add, id)
					}
					break
				}
			}
		}
		slices.Sort(add)
		slices.Sort(del)
		holds = append(holds, hold)
		adds, dels = append(adds, add), append(dels, del)
	}
	return &Input{Graph: g, Items: items, Adds: adds, Dels: dels, Capacity: 1024}
}

// sizedItem is an item charged size bytes and a few of framing.
func sizedItem(size int) chunk.Item {
	return chunk.Item{Value: make([]byte, size), Members: []uint32{0}}
}

// sameAsReference fails unless BottomUp and the reference assign in alike.
func sameAsReference(t *testing.T, name string, in *Input, b BottomUp) {
	t.Helper()
	got, err := b.Partition(in)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := referenceBottomUp(b).Partition(in)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s, %+v: %d chunks (%d overfull), the reference %d (%d)", name, b, got.NumChunks(), got.Overfull, want.NumChunks(), want.Overfull)
	}
}

// TestBottomUpMatchesReference: BottomUp, which works in delta time, assigns
// every item to the chunk the reference's whole-set algebra does, in the same
// order, on generated corpora — a chain, trees of depth 2 to 40, merges — and
// on random instances whose merges re-add items, at Beta 0, 3 and 20 and
// without the partial merge.
func TestBottomUpMatchesReference(t *testing.T) {
	betas := []BottomUp{{}, {Beta: 3}, {Beta: 20}, {NoPartialMerge: true}, {Beta: 3, NoPartialMerge: true}}
	for _, depth := range []float64{0, 2, 5, 12, 40} {
		for _, merge := range []float64{0, 0.2} {
			spec := workload.Spec{
				Name: "ref", Versions: 80, AvgDepth: depth, RecordsPerVersion: 120,
				UpdatePct: 0.15, RecordSize: 64, MergeProb: merge, Seed: int64(depth*10 + merge*100 + 1),
			}
			c, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			in, err := NewInputFromCorpus(c, 2048)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range betas {
				sameAsReference(t, fmt.Sprintf("depth %v, merges %v", depth, merge), in, b)
			}
		}
	}
	for seed := range int64(40) {
		in := randomInput(seed, 2+int(seed)*3, 1+int(seed%7)*6, seed%2 == 1)
		for _, b := range betas {
			sameAsReference(t, fmt.Sprintf("random instance %d", seed), in, b)
		}
	}
}

// FuzzBottomUp: on any random instance, BottomUp and the reference agree.
func FuzzBottomUp(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(200), uint8(0), false) // a chain
	f.Add(int64(2), uint8(40), uint8(2), uint8(0), false)   // a bushy tree
	f.Add(int64(3), uint8(60), uint8(40), uint8(3), false)  // long branches
	f.Add(int64(4), uint8(50), uint8(6), uint8(20), true)   // merges that re-add
	f.Add(int64(5), uint8(50), uint8(3), uint8(3), true)
	f.Add(int64(6), uint8(1), uint8(1), uint8(1), true) // the root alone
	f.Fuzz(func(t *testing.T, seed int64, versions, depth, beta uint8, readds bool) {
		in := randomInput(seed, 1+int(versions)%120, 1+int(depth), readds)
		sameAsReference(t, "fuzz", in, BottomUp{Beta: int(beta % 32)})
	})
}
