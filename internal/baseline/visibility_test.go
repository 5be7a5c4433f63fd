package baseline

import (
	"testing"

	"rstore/internal/corpus"
	"rstore/internal/types"
	"rstore/internal/vgraph"
)

// visibilityCorpus: V0 → {V1 → V3, V2}; record r originates at V0, is
// deleted at V1 (so invisible in V1's subtree) but stays visible in V2.
func visibilityCorpus(t testing.TB) *corpus.Corpus {
	t.Helper()
	g := vgraph.New()
	v0, _ := g.AddRoot()
	v1, _ := g.AddVersion(v0)
	v2, _ := g.AddVersion(v0)
	v3, _ := g.AddVersion(v1)
	_ = v2
	_ = v3

	c := corpus.New(g)
	must := func(v types.VersionID, d *types.Delta) {
		t.Helper()
		if err := c.AddVersionDelta(v, d); err != nil {
			t.Fatal(err)
		}
	}
	must(0, &types.Delta{Adds: []types.Record{
		{CK: types.CompositeKey{Key: "r", Version: 0}, Value: []byte("r0")},
		{CK: types.CompositeKey{Key: "s", Version: 0}, Value: []byte("s0")},
	}})
	must(1, &types.Delta{Dels: []types.CompositeKey{{Key: "r", Version: 0}}})
	must(2, &types.Delta{})
	must(3, &types.Delta{})
	return c
}

func TestVisibleAt(t *testing.T) {
	c := visibilityCorpus(t)
	dels := collectDeletePoints(c)
	rID, _ := c.IDForCK(types.CompositeKey{Key: "r", Version: 0})

	cases := []struct {
		v    types.VersionID
		want bool
	}{
		{0, true},  // at origin
		{1, false}, // deleted here
		{2, true},  // sibling branch unaffected
		{3, false}, // below the deletion
	}
	for _, tc := range cases {
		if got := visibleAt(c, 0, dels[rID], tc.v); got != tc.want {
			t.Errorf("visibleAt(r@0, V%d) = %v, want %v", tc.v, got, tc.want)
		}
	}
	// A record is never visible above its origin.
	sID, _ := c.IDForCK(types.CompositeKey{Key: "s", Version: 0})
	_ = sID
	if visibleAt(c, 2, nil, 0) {
		t.Error("record visible above its origin")
	}
}

func TestIsAncestor(t *testing.T) {
	c := visibilityCorpus(t)
	g := c.Graph()
	cases := []struct {
		a, v types.VersionID
		want bool
	}{
		{0, 3, true},
		{1, 3, true},
		{3, 3, true},
		{2, 3, false},
		{3, 1, false},
		{1, 2, false},
	}
	for _, tc := range cases {
		if got := isAncestor(g, tc.a, tc.v); got != tc.want {
			t.Errorf("isAncestor(%d, %d) = %v, want %v", tc.a, tc.v, got, tc.want)
		}
	}
}

// TestCollectDeletePoints: multiple deletions across branches accumulate.
func TestCollectDeletePoints(t *testing.T) {
	g := vgraph.New()
	v0, _ := g.AddRoot()
	v1, _ := g.AddVersion(v0)
	v2, _ := g.AddVersion(v0)
	c := corpus.New(g)
	c.AddVersionDelta(v0, &types.Delta{Adds: []types.Record{
		{CK: types.CompositeKey{Key: "x", Version: 0}, Value: []byte("x")},
	}})
	c.AddVersionDelta(v1, &types.Delta{Dels: []types.CompositeKey{{Key: "x", Version: 0}}})
	c.AddVersionDelta(v2, &types.Delta{Dels: []types.CompositeKey{{Key: "x", Version: 0}}})
	dels := collectDeletePoints(c)
	if len(dels[0]) != 2 {
		t.Fatalf("delete points = %v, want both branches", dels[0])
	}
}

// FuzzDecodeGroup: the group decoder rejects arbitrary input with an error —
// never a panic, never a loop — and sizes nothing from a count the input does
// not pay for.
func FuzzDecodeGroup(f *testing.F) {
	c := visibilityCorpus(f)
	s := &Subchunk{c: c, dels: collectDeletePoints(c)}
	for _, k := range c.Keys() {
		buf, err := s.encodeGroup(c.KeyRecords(k))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, dels, err := decodeGroup(data)
		if err != nil {
			if recs != nil || dels != nil {
				t.Fatalf("%d records returned beside %v", len(recs), err)
			}
			return
		}
		if len(recs) != len(dels) || cap(recs) > len(data) {
			t.Fatalf("group of %d bytes: %d records (cap %d), %d deletion lists", len(data), len(recs), cap(recs), len(dels))
		}
	})
}
