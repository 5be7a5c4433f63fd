package corpus

import (
	"errors"
	"testing"

	"rstore/internal/types"
	"rstore/internal/vgraph"
)

func rec(k string, v types.VersionID) types.Record {
	return types.Record{CK: types.CompositeKey{Key: types.Key(k), Version: v}, Value: []byte(k)}
}

func ck(k string, v types.VersionID) types.CompositeKey {
	return types.CompositeKey{Key: types.Key(k), Version: v}
}

// buildExample2 reproduces the paper's Example 2 (Fig 1): five versions,
// nine distinct records.
//
//	V0 root {K0..K3}; V1 = mod K3, add K4; V2 (from V0) = mod K3, add K5,
//	del K2; V3 (from V1) = del K2; V4 (from V2) = mod K3.
func buildExample2(t *testing.T) *Corpus {
	t.Helper()
	g := vgraph.New()
	v0, _ := g.AddRoot()
	v1, _ := g.AddVersion(v0)
	v2, _ := g.AddVersion(v0)
	v3, _ := g.AddVersion(v1)
	v4, _ := g.AddVersion(v2)

	c := New(g)
	deltas := []*types.Delta{
		{Adds: []types.Record{rec("K0", 0), rec("K1", 0), rec("K2", 0), rec("K3", 0)}},
		{Adds: []types.Record{rec("K3", 1), rec("K4", 1)}, Dels: []types.CompositeKey{ck("K3", 0)}},
		{Adds: []types.Record{rec("K3", 2), rec("K5", 2)}, Dels: []types.CompositeKey{ck("K3", 0), ck("K2", 0)}},
		{Dels: []types.CompositeKey{ck("K2", 0)}},
		{Adds: []types.Record{rec("K3", 4)}, Dels: []types.CompositeKey{ck("K3", 2)}},
	}
	for v, d := range deltas {
		if err := c.AddVersionDelta(types.VersionID(v), d); err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
	}
	_ = v3
	_ = v4
	return c
}

func TestExample2Membership(t *testing.T) {
	c := buildExample2(t)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumRecords() != 9 {
		t.Fatalf("distinct records = %d, want 9 (paper)", c.NumRecords())
	}
	// Paper: V1 = {⟨K0,V0⟩,⟨K1,V0⟩,⟨K2,V0⟩,⟨K3,V1⟩,⟨K4,V1⟩}.
	want := map[types.VersionID][]types.CompositeKey{
		0: {ck("K0", 0), ck("K1", 0), ck("K2", 0), ck("K3", 0)},
		1: {ck("K0", 0), ck("K1", 0), ck("K2", 0), ck("K3", 1), ck("K4", 1)},
		2: {ck("K0", 0), ck("K1", 0), ck("K3", 2), ck("K5", 2)},
		3: {ck("K0", 0), ck("K1", 0), ck("K3", 1), ck("K4", 1)},
		4: {ck("K0", 0), ck("K1", 0), ck("K3", 4), ck("K5", 2)},
	}
	for v, cks := range want {
		members, err := c.Members(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(members) != len(cks) {
			t.Fatalf("V%d: %d members, want %d", v, len(members), len(cks))
		}
		have := map[types.CompositeKey]bool{}
		for _, id := range members {
			have[c.Record(id).CK] = true
		}
		for _, k := range cks {
			if !have[k] {
				t.Fatalf("V%d missing %v", v, k)
			}
		}
	}
}

func TestKeyRecords(t *testing.T) {
	c := buildExample2(t)
	k3 := c.KeyRecords("K3")
	if len(k3) != 4 {
		t.Fatalf("K3 has %d records, want 4", len(k3))
	}
	// Registration order: origins 0, 1, 2, 4.
	wantOrigins := []types.VersionID{0, 1, 2, 4}
	for i, id := range k3 {
		if c.Record(id).CK.Version != wantOrigins[i] {
			t.Fatalf("K3 record %d origin %d, want %d", i, c.Record(id).CK.Version, wantOrigins[i])
		}
	}
	if c.KeyRecords("missing") != nil {
		t.Fatal("unknown key returned records")
	}
	if c.NumKeys() != 6 {
		t.Fatalf("NumKeys = %d", c.NumKeys())
	}
}

func TestAddVersionDeltaErrors(t *testing.T) {
	g := vgraph.New()
	g.AddRoot()
	c := New(g)
	// Out-of-order registration.
	if err := c.AddVersionDelta(1, &types.Delta{}); err == nil {
		t.Error("out-of-order registration accepted")
	}
	// Delete of unknown record.
	err := c.AddVersionDelta(0, &types.Delta{Dels: []types.CompositeKey{ck("x", 0)}})
	if !errors.Is(err, types.ErrNotFound) {
		t.Errorf("unknown delete: %v", err)
	}
	// Inconsistent delta (add and delete same CK).
	g2 := vgraph.New()
	g2.AddRoot()
	c2 := New(g2)
	err = c2.AddVersionDelta(0, &types.Delta{
		Adds: []types.Record{rec("a", 0)},
		Dels: []types.CompositeKey{ck("a", 0)},
	})
	if !errors.Is(err, types.ErrInconsistentDelta) {
		t.Errorf("inconsistent delta: %v", err)
	}
	// A first add of a record whose composite key names another version:
	// placement would credit it to that version.
	g3 := vgraph.New()
	g3.AddRoot()
	c3 := New(g3)
	if err := c3.AddVersionDelta(0, &types.Delta{Adds: []types.Record{rec("a", 3)}}); err == nil {
		t.Error("a new record naming another version accepted")
	}
}

func TestMergeReAdd(t *testing.T) {
	// A record created on one branch re-added (via merge) on another must
	// reuse its id and appear in both branches' membership.
	g := vgraph.New()
	v0, _ := g.AddRoot()
	v1, _ := g.AddVersion(v0)     // branch A: adds Kx
	v2, _ := g.AddVersion(v0)     // branch B
	v3, _ := g.AddVersion(v2, v1) // merge into B, re-adds ⟨Kx,V1⟩

	c := New(g)
	must := func(v types.VersionID, d *types.Delta) {
		t.Helper()
		if err := c.AddVersionDelta(v, d); err != nil {
			t.Fatal(err)
		}
	}
	must(v0, &types.Delta{Adds: []types.Record{rec("base", 0)}})
	must(v1, &types.Delta{Adds: []types.Record{rec("Kx", 1)}})
	must(v2, &types.Delta{})
	must(v3, &types.Delta{Adds: []types.Record{rec("Kx", 1)}}) // tree-edge re-add

	if c.NumRecords() != 2 {
		t.Fatalf("NumRecords = %d, want 2 (re-add must not duplicate)", c.NumRecords())
	}
	m3, _ := c.Members(v3)
	if len(m3) != 2 {
		t.Fatalf("merge version has %d members", len(m3))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateOneRecordPerKey: a version holding two records of one key is
// refused, whether it adds one beside the other, beside one only a sibling
// deleted, or deletes the record only a sibling holds; siblings that each
// rewrite a key, or each add one, are not.
func TestValidateOneRecordPerKey(t *testing.T) {
	build := func(deltas ...*types.Delta) *Corpus {
		g := vgraph.New()
		g.AddRoot()
		for range deltas[1:] {
			g.AddVersion(0)
		}
		c := New(g)
		for v, d := range deltas {
			if err := c.AddVersionDelta(types.VersionID(v), d); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	root := &types.Delta{Adds: []types.Record{rec("a", 0), rec("b", 0)}}
	for _, c := range []struct {
		name   string
		corpus *Corpus
		ok     bool
	}{
		{"add beside", build(root, &types.Delta{Adds: []types.Record{rec("a", 1)}}), false},
		{"sibling's delete", build(root,
			&types.Delta{Adds: []types.Record{rec("a", 1)}, Dels: []types.CompositeKey{ck("a", 0)}},
			&types.Delta{Adds: []types.Record{rec("a", 2)}, Dels: []types.CompositeKey{ck("a", 1)}}), false},
		{"add beside a sibling's delete", build(root,
			&types.Delta{Dels: []types.CompositeKey{ck("b", 0)}},
			&types.Delta{Adds: []types.Record{rec("b", 2)}}), false},
		{"siblings rewrite a and add c", build(root,
			&types.Delta{Adds: []types.Record{rec("a", 1), rec("c", 1)}, Dels: []types.CompositeKey{ck("a", 0)}},
			&types.Delta{Adds: []types.Record{rec("a", 2), rec("c", 2)}, Dels: []types.CompositeKey{ck("a", 0)}}), true},
	} {
		if err := c.corpus.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v", c.name, err)
		}
	}
}

func TestTotalBytes(t *testing.T) {
	c := buildExample2(t)
	// Nine distinct records of 2-byte payloads + overhead.
	want := int64(9 * (2 + types.RecordOverhead))
	if got := c.TotalBytes(); got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
}

// TestGrowSizesOnce: a corpus told how much is coming registers it without
// regrowing its record and delta slices, and a hint on a corpus that already
// holds records loses none of them.
func TestGrowSizesOnce(t *testing.T) {
	g := vgraph.New()
	c := New(g)
	const versions, perVersion = 40, 25
	c.Grow(versions*perVersion, versions)
	recsCap, addsCap := cap(c.recs), cap(c.adds)
	parent := types.InvalidVersion
	for v := types.VersionID(0); v < versions; v++ {
		var err error
		if v == 0 {
			parent, err = g.AddRoot()
		} else {
			parent, err = g.AddVersion(parent)
		}
		if err != nil {
			t.Fatal(err)
		}
		d := &types.Delta{}
		for i := 0; i < perVersion; i++ {
			d.Adds = append(d.Adds, rec(string(rune('a'+i)), v))
		}
		if err := c.AddVersionDelta(v, d); err != nil {
			t.Fatal(err)
		}
	}
	if cap(c.recs) != recsCap || cap(c.adds) != addsCap || c.NumRecords() != versions*perVersion {
		t.Fatalf("%d records in a slice of %d (sized %d), deltas in one of %d (sized %d)", c.NumRecords(), cap(c.recs), recsCap, cap(c.adds), addsCap)
	}
	c.Grow(1000, 10)
	if id, ok := c.IDForCK(ck("a", 3)); !ok || c.Record(id).CK != ck("a", 3) || c.NumVersions() != versions {
		t.Fatalf("after a second Grow: record a@3 at %d (%v), %d versions", id, ok, c.NumVersions())
	}
}
