// Package vgraph implements the version graph of paper §2.1: a rooted DAG
// whose nodes are versions and whose edges record derivation. Each version is
// derived from a primary parent via a delta; merge versions carry additional
// (secondary) parents.
//
// Because deltas are always expressed against the primary parent, the
// DAG→tree conversion of §2.5 (Fig 4) is implicit: dropping every secondary
// edge yields the version tree used by the partitioning algorithms, and
// records that arrived exclusively through a secondary parent appear in the
// tree-edge delta as fresh inserts ("renamed" in the paper's terms). The
// original DAG remains available for provenance queries.
package vgraph

import (
	"fmt"

	"rstore/internal/types"
)

// Graph is a version graph. Version ids are dense: the i-th committed
// version has id i, the root is always 0. The zero value is an empty graph;
// add the root with AddRoot.
type Graph struct {
	parents  [][]types.VersionID // parents[v][0] is the primary (tree) parent
	children [][]types.VersionID // primary-edge children (tree children)
	depth    []int32             // root has depth 1
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// NumVersions returns the number of versions (0 for an empty graph).
func (g *Graph) NumVersions() int { return len(g.parents) }

// AddRoot creates the root version (id 0). It fails if the graph is
// non-empty.
func (g *Graph) AddRoot() (types.VersionID, error) {
	if len(g.parents) != 0 {
		return types.InvalidVersion, fmt.Errorf("vgraph: root already exists")
	}
	g.parents = append(g.parents, nil)
	g.children = append(g.children, nil)
	g.depth = append(g.depth, 1)
	return 0, nil
}

// AddVersion creates a new version derived from the given parents. The first
// parent is the primary parent: the version's delta is expressed against it
// and it defines the version-tree edge. Additional parents mark a merge.
func (g *Graph) AddVersion(parents ...types.VersionID) (types.VersionID, error) {
	if len(parents) == 0 {
		return types.InvalidVersion, fmt.Errorf("vgraph: version needs at least one parent")
	}
	seen := make(map[types.VersionID]struct{}, len(parents))
	for _, p := range parents {
		if !g.Valid(p) {
			return types.InvalidVersion, &types.VersionUnknownError{Version: p}
		}
		if _, dup := seen[p]; dup {
			return types.InvalidVersion, fmt.Errorf("vgraph: duplicate parent %d", p)
		}
		seen[p] = struct{}{}
	}
	id := types.VersionID(len(g.parents))
	ps := make([]types.VersionID, len(parents))
	copy(ps, parents)
	g.parents = append(g.parents, ps)
	g.children = append(g.children, nil)
	g.depth = append(g.depth, g.depth[parents[0]]+1)
	g.children[parents[0]] = append(g.children[parents[0]], id)
	return id, nil
}

// Valid reports whether v names an existing version.
func (g *Graph) Valid(v types.VersionID) bool { return int(v) < len(g.parents) }

// Parent returns the primary (tree) parent of v, or InvalidVersion for the
// root.
func (g *Graph) Parent(v types.VersionID) types.VersionID {
	if len(g.parents[v]) == 0 {
		return types.InvalidVersion
	}
	return g.parents[v][0]
}

// Parents returns all parents of v (primary first). The slice is shared;
// callers must not mutate it.
func (g *Graph) Parents(v types.VersionID) []types.VersionID { return g.parents[v] }

// Children returns the tree children of v (primary-edge derivations only).
// The slice is shared; callers must not mutate it.
func (g *Graph) Children(v types.VersionID) []types.VersionID { return g.children[v] }

// Depth returns the tree depth of v; the root has depth 1 (matching the
// paper's dataset statistics, where a 300-version chain has depth 300).
func (g *Graph) Depth(v types.VersionID) int { return int(g.depth[v]) }

// Leaves returns all leaf versions in id order.
func (g *Graph) Leaves() []types.VersionID {
	var out []types.VersionID
	for v := range g.parents {
		if len(g.children[v]) == 0 {
			out = append(out, types.VersionID(v))
		}
	}
	return out
}

// AvgLeafDepth returns the average depth over leaves — the "average version
// graph depth" statistic of Table 2.
func (g *Graph) AvgLeafDepth() float64 {
	leaves := g.Leaves()
	if len(leaves) == 0 {
		return 0
	}
	total := 0
	for _, l := range leaves {
		total += g.Depth(l)
	}
	return float64(total) / float64(len(leaves))
}

// PathFromRoot returns the tree path root…v inclusive.
func (g *Graph) PathFromRoot(v types.VersionID) []types.VersionID {
	depth := g.Depth(v)
	path := make([]types.VersionID, depth)
	cur := v
	for i := depth - 1; i >= 0; i-- {
		path[i] = cur
		cur = g.Parent(cur)
	}
	return path
}

// PreOrder returns a depth-first pre-order of the tree starting at the root.
// Children are visited in creation order. This is the traversal order of the
// DepthFirst partitioner (Algorithm 4).
func (g *Graph) PreOrder() []types.VersionID {
	if len(g.parents) == 0 {
		return nil
	}
	out := make([]types.VersionID, 0, len(g.parents))
	stack := []types.VersionID{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, v)
		kids := g.children[v]
		// Push in reverse so the first child is visited first.
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
	return out
}

// PostOrder returns a depth-first post-order of the tree (every version
// after all of its descendants) — the processing order of the Bottom-Up
// partitioner (Algorithm 3).
func (g *Graph) PostOrder() []types.VersionID {
	if len(g.parents) == 0 {
		return nil
	}
	out := make([]types.VersionID, 0, len(g.parents))
	type frame struct {
		v    types.VersionID
		next int
	}
	stack := []frame{{v: 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		kids := g.children[f.v]
		if f.next < len(kids) {
			child := kids[f.next]
			f.next++
			stack = append(stack, frame{v: child})
			continue
		}
		out = append(out, f.v)
		stack = stack[:len(stack)-1]
	}
	return out
}

// BFSOrder returns a breadth-first order of the tree from the root — the
// traversal order of the BreadthFirst partitioner.
func (g *Graph) BFSOrder() []types.VersionID {
	if len(g.parents) == 0 {
		return nil
	}
	out := make([]types.VersionID, 0, len(g.parents))
	queue := []types.VersionID{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		out = append(out, v)
		queue = append(queue, g.children[v]...)
	}
	return out
}

// Validate checks structural invariants: dense ids, acyclic parent links,
// consistent child lists, correct depths. It is used by tests and by loaders
// of persisted graphs.
func (g *Graph) Validate() error {
	n := len(g.parents)
	if n == 0 {
		return nil
	}
	if len(g.parents[0]) != 0 {
		return fmt.Errorf("vgraph: version 0 must be the root")
	}
	for v := 1; v < n; v++ {
		ps := g.parents[v]
		if len(ps) == 0 {
			return fmt.Errorf("vgraph: non-root version %d has no parent", v)
		}
		for _, p := range ps {
			if int(p) >= v {
				return fmt.Errorf("vgraph: version %d has forward parent %d", v, p)
			}
		}
		if g.depth[v] != g.depth[ps[0]]+1 {
			return fmt.Errorf("vgraph: version %d has depth %d, parent depth %d", v, g.depth[v], g.depth[ps[0]])
		}
	}
	// Every version must appear exactly once as a tree child of its primary
	// parent.
	seen := make([]bool, n)
	for v := 0; v < n; v++ {
		for _, c := range g.children[v] {
			if g.Parent(c) != types.VersionID(v) {
				return fmt.Errorf("vgraph: child list of %d contains %d whose parent is %d", v, c, g.Parent(c))
			}
			if seen[c] {
				return fmt.Errorf("vgraph: version %d appears in multiple child lists", c)
			}
			seen[c] = true
		}
	}
	for v := 1; v < n; v++ {
		if !seen[v] {
			return fmt.Errorf("vgraph: version %d missing from its parent's child list", v)
		}
	}
	return nil
}
