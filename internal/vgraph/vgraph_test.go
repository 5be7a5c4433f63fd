package vgraph

import (
	"testing"

	"rstore/internal/types"
)

// buildFig1 constructs the paper's Fig 1 graph: V0 root; V1, V2 children of
// V0; V3 child of V1; V4 child of V2.
func buildFig1(t *testing.T) *Graph {
	t.Helper()
	g := New()
	v0, err := g.AddRoot()
	if err != nil || v0 != 0 {
		t.Fatalf("AddRoot: %v %v", v0, err)
	}
	mustAdd := func(parents ...types.VersionID) types.VersionID {
		v, err := g.AddVersion(parents...)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	v1 := mustAdd(v0)
	v2 := mustAdd(v0)
	mustAdd(v1) // v3
	mustAdd(v2) // v4
	return g
}

func TestStructure(t *testing.T) {
	g := buildFig1(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVersions() != 5 {
		t.Fatalf("NumVersions = %d", g.NumVersions())
	}
	if g.Parent(0) != types.InvalidVersion {
		t.Fatal("root has a parent")
	}
	if g.Parent(3) != 1 || g.Parent(4) != 2 {
		t.Fatal("parents wrong")
	}
	if kids := g.Children(0); len(kids) != 2 || kids[0] != 1 || kids[1] != 2 {
		t.Fatalf("Children(0) = %v", kids)
	}
	if g.Depth(0) != 1 || g.Depth(3) != 3 {
		t.Fatal("depths")
	}
	leaves := g.Leaves()
	if len(leaves) != 2 || leaves[0] != 3 || leaves[1] != 4 {
		t.Fatalf("Leaves = %v", leaves)
	}
	if got := g.AvgLeafDepth(); got != 3 {
		t.Fatalf("AvgLeafDepth = %v", got)
	}
}

func TestPathFromRoot(t *testing.T) {
	g := buildFig1(t)
	path := g.PathFromRoot(3)
	if len(path) != 3 || path[0] != 0 || path[1] != 1 || path[2] != 3 {
		t.Fatalf("PathFromRoot(3) = %v", path)
	}
	if p := g.PathFromRoot(0); len(p) != 1 || p[0] != 0 {
		t.Fatalf("PathFromRoot(0) = %v", p)
	}
}

func TestTraversalProperties(t *testing.T) {
	g, err := Generate(GenerateOptions{Versions: 200, BranchProb: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	n := g.NumVersions()

	checkPermutation := func(name string, order []types.VersionID) []int {
		pos := make([]int, n)
		for i := range pos {
			pos[i] = -1
		}
		for i, v := range order {
			if pos[v] != -1 {
				t.Fatalf("%s: version %d visited twice", name, v)
			}
			pos[v] = i
		}
		for v, p := range pos {
			if p == -1 {
				t.Fatalf("%s: version %d missing", name, v)
			}
		}
		return pos
	}

	pre := checkPermutation("PreOrder", g.PreOrder())
	post := checkPermutation("PostOrder", g.PostOrder())
	bfs := checkPermutation("BFSOrder", g.BFSOrder())

	for v := 1; v < n; v++ {
		p := g.Parent(types.VersionID(v))
		if pre[v] <= pre[p] {
			t.Fatalf("PreOrder: child %d before parent %d", v, p)
		}
		if post[v] >= post[p] {
			t.Fatalf("PostOrder: parent %d before child %d", p, v)
		}
		if bfs[v] <= bfs[p] {
			t.Fatalf("BFSOrder: child %d before parent %d", v, p)
		}
		if g.Depth(types.VersionID(v)) != g.Depth(p)+1 {
			t.Fatalf("depth(%d) != depth(parent)+1", v)
		}
	}
	// BFS visits by non-decreasing depth.
	order := g.BFSOrder()
	for i := 1; i < len(order); i++ {
		if g.Depth(order[i]) < g.Depth(order[i-1]) {
			t.Fatal("BFS depth not monotone")
		}
	}
}

func TestMerges(t *testing.T) {
	g := New()
	v0, _ := g.AddRoot()
	v1, _ := g.AddVersion(v0)
	v2, _ := g.AddVersion(v0)
	m, err := g.AddVersion(v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	if ps := g.Parents(m); len(ps) != 2 || ps[0] != v1 || ps[1] != v2 {
		t.Fatalf("Parents(m) = %v", ps)
	}
	if g.Parent(m) != v1 {
		t.Fatal("primary parent")
	}
	// The tree (primary edges) must not see m under v2.
	for _, c := range g.Children(v2) {
		if c == m {
			t.Fatal("merge in tree children of secondary parent")
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddVersionErrors(t *testing.T) {
	g := New()
	if _, err := g.AddVersion(); err == nil {
		t.Error("no-parent version accepted")
	}
	if _, err := g.AddRoot(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddRoot(); err == nil {
		t.Error("second root accepted")
	}
	if _, err := g.AddVersion(99); err == nil {
		t.Error("unknown parent accepted")
	}
	if _, err := g.AddVersion(0, 0); err == nil {
		t.Error("duplicate parents accepted")
	}
}

func TestGenerateChain(t *testing.T) {
	g, err := Generate(GenerateOptions{Versions: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A chain of 50 versions has one leaf, at depth 50.
	if leaves := g.Leaves(); len(leaves) != 1 || g.Depth(leaves[0]) != 50 {
		t.Fatalf("BranchProb=0: leaves %v, want one at depth 50", leaves)
	}
}

func TestGenerateTargetsDepth(t *testing.T) {
	for _, target := range []float64{50, 120, 300} {
		opts := OptionsForDepth(600, target, 2)
		g, err := Generate(opts)
		if err != nil {
			t.Fatal(err)
		}
		got := g.AvgLeafDepth()
		if got < target*0.6 || got > target*1.7 {
			t.Errorf("target depth %.0f: got %.1f", target, got)
		}
	}
}

func TestGenerateWithMerges(t *testing.T) {
	g, err := Generate(GenerateOptions{Versions: 300, BranchProb: 0.15, MergeProb: 0.05, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	merges := 0
	for v := 0; v < g.NumVersions(); v++ {
		if len(g.Parents(types.VersionID(v))) > 1 {
			merges++
		}
	}
	if merges == 0 {
		t.Error("MergeProb produced no merges")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, _ := Generate(GenerateOptions{Versions: 100, BranchProb: 0.2, Seed: 9})
	b, _ := Generate(GenerateOptions{Versions: 100, BranchProb: 0.2, Seed: 9})
	for v := 0; v < 100; v++ {
		pa, pb := a.Parents(types.VersionID(v)), b.Parents(types.VersionID(v))
		if len(pa) != len(pb) {
			t.Fatalf("version %d parent count differs", v)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("version %d parent %d differs", v, i)
			}
		}
	}
}
