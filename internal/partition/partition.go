// Package partition implements the chunking algorithms of paper §3: the
// shingle-based partitioner (Algorithms 1–2), the Bottom-Up version-tree
// partitioner (Algorithm 3, with the subtree-size bound β of §3.2.1), and
// the greedy Depth-First / Breadth-First traversal partitioners
// (Algorithm 4). All of them solve the optimization problem of §2.5:
// assign items (records, or sub-chunks when record-level compression is
// enabled) to approximately fixed-size chunks so that the number of chunks
// retrieved per version — the span — is minimized.
package partition

import (
	"fmt"

	"rstore/internal/bitset"
	"rstore/internal/chunk"
	"rstore/internal/corpus"
	"rstore/internal/types"
	"rstore/internal/vgraph"
)

// DefaultSlack is the chunk-size variation the paper allows (§2.5: "with
// variations of upto 25% allowed").
const DefaultSlack = 0.25

// Input is a partitioning problem instance. Items live in "item id" space:
// for the no-compression case (k=1) item i is record i; with sub-chunking,
// items are sub-chunks and the graph is the transformed version tree of
// §3.4.
type Input struct {
	// Graph is the version tree guiding tree-based partitioners.
	Graph *vgraph.Graph
	// Items are the units to place.
	Items []chunk.Item
	// Adds[v] / Dels[v] are the sorted item-id deltas of version v against
	// its tree parent.
	Adds [][]uint32
	Dels [][]uint32
	// Capacity is the nominal chunk size C in bytes.
	Capacity int
	// Slack is the allowed overfill fraction; 0 means DefaultSlack.
	Slack float64
}

func (in *Input) slack() float64 {
	if in.Slack <= 0 {
		return DefaultSlack
	}
	return in.Slack
}

// hardCap is the absolute chunk-size ceiling C·(1+slack).
func (in *Input) hardCap() int {
	return int(float64(in.Capacity) * (1 + in.slack()))
}

// Validate checks the instance for structural problems.
func (in *Input) Validate() error {
	if in.Capacity <= 0 {
		return fmt.Errorf("partition: capacity must be positive, got %d", in.Capacity)
	}
	n := in.Graph.NumVersions()
	if len(in.Adds) != n || len(in.Dels) != n {
		return fmt.Errorf("partition: graph has %d versions, deltas have %d/%d", n, len(in.Adds), len(in.Dels))
	}
	for v := 0; v < n; v++ {
		for _, lists := range [][]uint32{in.Adds[v], in.Dels[v]} {
			for _, id := range lists {
				if int(id) >= len(in.Items) {
					return fmt.Errorf("partition: version %d references item %d of %d", v, id, len(in.Items))
				}
			}
		}
	}
	return nil
}

// Assignment is a partitioning result: per chunk, the item ids in placement
// order.
type Assignment struct {
	Chunks [][]uint32
	// Overfull counts chunks whose packed size exceeds the nominal
	// capacity (they stay within the slack ceiling).
	Overfull int
}

// NumChunks returns the number of chunks produced.
func (a *Assignment) NumChunks() int { return len(a.Chunks) }

// ChunkOf flattens the assignment into an item→chunk lookup. Unassigned
// items map to chunk.NoChunk.
func (a *Assignment) ChunkOf(numItems int) []uint32 {
	out := make([]uint32, numItems)
	for i := range out {
		out[i] = chunk.NoChunk
	}
	for cid, items := range a.Chunks {
		for _, it := range items {
			out[it] = uint32(cid)
		}
	}
	return out
}

// Algorithm is a partitioning strategy.
type Algorithm interface {
	// Name returns the paper's name for the algorithm.
	Name() string
	// Partition solves the instance.
	Partition(in *Input) (*Assignment, error)
}

// packer fills chunks sequentially under the capacity/slack rule, skipping
// items that were already placed (records can be re-encountered through
// merge edges or re-adds; the paper deduplicates with a hash table, §3.2).
type packer struct {
	in       *Input
	placed   []bool
	chunks   [][]uint32
	sizes    []int
	cur      []uint32
	curSize  int
	overfull int
}

func newPacker(in *Input) *packer {
	return &packer{in: in, placed: make([]bool, len(in.Items))}
}

// add places one item, opening a new chunk when the current one cannot take
// it. A chunk accepts an item beyond the nominal capacity only while staying
// under the hard ceiling; an item larger than the ceiling gets a chunk of
// its own.
func (p *packer) add(item uint32) {
	if p.placed[item] {
		return
	}
	p.placed[item] = true
	size := p.in.Items[item].PackedSize()
	if p.curSize > 0 {
		fits := p.curSize+size <= p.in.Capacity
		squeeze := p.curSize < p.in.Capacity && p.curSize+size <= p.in.hardCap()
		if !fits && !squeeze {
			p.closeCurrent()
		}
	}
	p.cur = append(p.cur, item)
	p.curSize += size
}

// addAll places a list of items in order.
func (p *packer) addAll(items []uint32) {
	for _, it := range items {
		p.add(it)
	}
}

func (p *packer) closeCurrent() {
	if len(p.cur) == 0 {
		return
	}
	p.chunks = append(p.chunks, p.cur)
	p.sizes = append(p.sizes, p.curSize)
	if p.curSize > p.in.Capacity {
		p.overfull++
	}
	p.cur = nil
	p.curSize = 0
}

// finish closes the trailing chunk and returns the assignment.
func (p *packer) finish() *Assignment {
	p.closeCurrent()
	return &Assignment{Chunks: p.chunks, Overfull: p.overfull}
}

// partial is an unfinished chunk produced by a per-version chunking step of
// the Bottom-Up algorithm; partials are merged at the very end to reduce
// fragmentation (§3.2) without splitting their contents.
type partial struct {
	items []uint32
	size  int
}

// mergePartials packs whole partials into chunks, preserving creation order
// (partials of nearby versions stay adjacent — Bottom-Up emits them in
// post-order, so neighbours share long version runs) with a bounded
// first-fit lookback to curb fragmentation.
func mergePartials(in *Input, parts []partial) ([][]uint32, []int) {
	const lookback = 8
	var chunks [][]uint32
	var sizes []int
	for _, pt := range parts {
		placedAt := -1
		start := len(chunks) - lookback
		if start < 0 {
			start = 0
		}
		for i := len(chunks) - 1; i >= start; i-- {
			if sizes[i]+pt.size <= in.Capacity {
				placedAt = i
				break
			}
		}
		if placedAt == -1 {
			chunks = append(chunks, nil)
			sizes = append(sizes, 0)
			placedAt = len(chunks) - 1
		}
		chunks[placedAt] = append(chunks[placedAt], pt.items...)
		sizes[placedAt] += pt.size
	}
	return chunks, sizes
}

// forEachVersionItems walks the version tree in pre-order presenting each
// version's live item bitmap (delta apply on descent, undo on backtrack).
func forEachVersionItems(in *Input, fn func(v uint32, live *bitset.BitSet)) {
	if in.Graph.NumVersions() == 0 {
		return
	}
	live := bitset.New(len(in.Items))
	var walk func(v uint32)
	walk = func(v uint32) {
		for _, id := range in.Dels[v] {
			live.Clear(id)
		}
		for _, id := range in.Adds[v] {
			live.Set(id)
		}
		fn(v, live)
		for _, ch := range in.Graph.Children(types.VersionID(v)) {
			walk(uint32(ch))
		}
		for _, id := range in.Adds[v] {
			live.Clear(id)
		}
		for _, id := range in.Dels[v] {
			live.Set(id)
		}
	}
	walk(0)
}

// NewInputFromCorpus builds the k=1 (no record-level compression) instance:
// every record is its own item, ranked (chunk.RankAll); deltas carry over
// directly from the corpus (paper §2.5 Case 1).
func NewInputFromCorpus(c *corpus.Corpus, capacity int) (*Input, error) {
	in := RecordInput(c, capacity)
	chunk.RankAll(c, in.Items)
	return in, nil
}

// RecordInput is NewInputFromCorpus's instance with its items not yet ranked,
// for a caller that ranks them from a sort of its own.
func RecordInput(c *corpus.Corpus, capacity int) *Input {
	ids := make([]uint32, c.NumRecords())
	for id := range ids {
		ids[id] = uint32(id)
	}
	items := chunk.RecordItems(c, ids)
	n := c.NumVersions()
	adds := make([][]uint32, n)
	dels := make([][]uint32, n)
	for v := 0; v < n; v++ {
		adds[v] = c.Adds(types.VersionID(v))
		dels[v] = c.Dels(types.VersionID(v))
	}
	return &Input{
		Graph:    c.Graph(),
		Items:    items,
		Adds:     adds,
		Dels:     dels,
		Capacity: capacity,
	}
}
