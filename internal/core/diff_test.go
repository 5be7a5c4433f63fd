package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"rstore/internal/intset"
	"rstore/internal/types"
)

func diffStore(t *testing.T) (*Store, types.VersionID, types.VersionID, types.VersionID) {
	t.Helper()
	s, err := Open(context.Background(), Config{ChunkCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	v0, err := s.Commit(context.Background(), types.InvalidVersion, Change{Puts: map[types.Key][]byte{
		"a": []byte("a0"), "b": []byte("b0"), "c": []byte("c0"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Branch 1: modify a, add d.
	v1, err := s.Commit(context.Background(), v0, Change{Puts: map[types.Key][]byte{
		"a": []byte("a1"), "d": []byte("d1"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Branch 2 (from v0): delete b, modify c.
	v2, err := s.Commit(context.Background(), v0, Change{
		Puts:    map[types.Key][]byte{"c": []byte("c2")},
		Deletes: []types.Key{"b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, v0, v1, v2
}

func TestDiffLinear(t *testing.T) {
	s, v0, v1, _ := diffStore(t)
	d, err := s.Diff(v0, v1)
	if err != nil {
		t.Fatal(err)
	}
	// v0→v1: +⟨a,1⟩ +⟨d,1⟩ −⟨a,0⟩; modified = {a}.
	if len(d.Added) != 2 || len(d.Removed) != 1 {
		t.Fatalf("diff: +%v -%v", d.Added, d.Removed)
	}
	if d.Added[0] != (types.CompositeKey{Key: "a", Version: v1}) {
		t.Fatalf("added[0] = %v", d.Added[0])
	}
	if d.Removed[0] != (types.CompositeKey{Key: "a", Version: v0}) {
		t.Fatalf("removed[0] = %v", d.Removed[0])
	}
	if len(d.Modified) != 1 || d.Modified[0] != "a" {
		t.Fatalf("modified = %v", d.Modified)
	}
	// Reverse direction swaps the sets.
	rd, err := s.Diff(v1, v0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.Added) != len(d.Removed) || len(rd.Removed) != len(d.Added) {
		t.Fatal("reverse diff not symmetric")
	}
}

func TestDiffAcrossBranches(t *testing.T) {
	s, _, v1, v2 := diffStore(t)
	d, err := s.Diff(v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	// v1 = {a@1, b@0, c@0, d@1}; v2 = {a@0, c@2}.
	// Added (in v2 not v1): a@0, c@2. Removed: a@1, b@0, c@0, d@1.
	if len(d.Added) != 2 || len(d.Removed) != 4 {
		t.Fatalf("cross-branch diff: +%v -%v", d.Added, d.Removed)
	}
	// a and c changed origin across the branches.
	if len(d.Modified) != 2 {
		t.Fatalf("modified = %v", d.Modified)
	}
}

func TestDiffIdentity(t *testing.T) {
	s, v0, _, _ := diffStore(t)
	d, err := s.Diff(v0, v0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added)+len(d.Removed)+len(d.Modified) != 0 {
		t.Fatalf("self-diff not empty: %+v", d)
	}
	if _, err := s.Diff(v0, 99); !errors.Is(err, types.ErrVersionUnknown) {
		t.Fatalf("unknown version: %v", err)
	}
}

func TestLCA(t *testing.T) {
	s, v0, v1, v2 := diffStore(t)
	// Extend branch 1 once more.
	v3, err := s.Commit(context.Background(), v1, Change{Puts: map[types.Key][]byte{"e": []byte("e3")}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b, want types.VersionID
	}{
		{v1, v2, v0},
		{v3, v2, v0},
		{v3, v1, v1},
		{v0, v3, v0},
		{v2, v2, v2},
	}
	for _, c := range cases {
		got, err := s.LCA(c.a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("LCA(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if _, err := s.LCA(0, 99); !errors.Is(err, types.ErrVersionUnknown) {
		t.Fatalf("unknown version: %v", err)
	}
}

// memberSetDiff is Diff by definition: both versions' member sets, built
// from the root, subtracted both ways.
func memberSetDiff(t *testing.T, s *Store, a, b types.VersionID) *VersionDiff {
	t.Helper()
	ma, err := s.corpus.Members(a)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := s.corpus.Members(b)
	if err != nil {
		t.Fatal(err)
	}
	d := &VersionDiff{}
	removedKeys := map[types.Key]bool{}
	for _, id := range intset.Diff(ma, mb) {
		ck := s.corpus.Record(id).CK
		d.Removed = append(d.Removed, ck)
		removedKeys[ck.Key] = true
	}
	for _, id := range intset.Diff(mb, ma) {
		ck := s.corpus.Record(id).CK
		d.Added = append(d.Added, ck)
		if removedKeys[ck.Key] {
			d.Modified = append(d.Modified, ck.Key)
		}
	}
	types.SortCompositeKeys(d.Added)
	types.SortCompositeKeys(d.Removed)
	return d
}

// TestDiffEqualsMemberSetDiff: the diff composed along a → LCA → b is the
// member-set diff on every ordered pair of versions of the golden corpus and
// of a branchy session — merges that re-add records another branch placed,
// and a version that deletes everything, included.
func TestDiffEqualsMemberSetDiff(t *testing.T) {
	ctx := context.Background()
	golden, _ := openGolden(t, Config{})
	replayGolden(t, golden)

	branchy, err := Open(ctx, Config{ChunkCapacity: 512})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, sc := range branchySession(rng, 60, 24, func(k, step int) []byte { return payload(rng, k, step) }).commits {
		if _, err := branchy.CommitDelta(ctx, sc.parents, sc.delta); err != nil {
			t.Fatal(err)
		}
	}

	for name, s := range map[string]*Store{"golden": golden, "branchy": branchy} {
		n := types.VersionID(s.NumVersions())
		changed := 0
		for a := types.VersionID(0); a < n; a++ {
			for b := types.VersionID(0); b < n; b++ {
				got, err := s.Diff(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if want := memberSetDiff(t, s, a, b); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Diff(%d, %d) = %+v, member sets give %+v", name, a, b, got, want)
				}
				if len(got.Modified) > 0 {
					changed++
				}
			}
		}
		if changed == 0 {
			t.Fatalf("%s: no pair of versions differs", name)
		}
	}
}
