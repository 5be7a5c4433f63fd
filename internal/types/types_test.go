package types

import (
	"errors"
	"sort"
	"testing"
	"testing/quick"
)

func TestCompositeKeyLess(t *testing.T) {
	cases := []struct {
		a, b CompositeKey
		want bool
	}{
		{CompositeKey{"a", 0}, CompositeKey{"b", 0}, true},
		{CompositeKey{"b", 0}, CompositeKey{"a", 0}, false},
		{CompositeKey{"a", 1}, CompositeKey{"a", 2}, true},
		{CompositeKey{"a", 2}, CompositeKey{"a", 1}, false},
		{CompositeKey{"a", 1}, CompositeKey{"a", 1}, false},
		{CompositeKey{"a", 9}, CompositeKey{"b", 1}, true}, // key dominates
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestCompositeKeyLessIsStrictWeakOrder property-checks antisymmetry and
// totality of the ordering.
func TestCompositeKeyLessIsStrictWeakOrder(t *testing.T) {
	f := func(k1, k2 string, v1, v2 uint32) bool {
		a := CompositeKey{Key(k1), VersionID(v1)}
		b := CompositeKey{Key(k2), VersionID(v2)}
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeltaIsConsistent(t *testing.T) {
	ck := CompositeKey{"k", 1}
	good := &Delta{
		Adds: []Record{{CK: CompositeKey{"k", 2}}},
		Dels: []CompositeKey{ck},
	}
	if !good.IsConsistent() {
		t.Error("disjoint delta reported inconsistent")
	}
	bad := &Delta{
		Adds: []Record{{CK: ck}},
		Dels: []CompositeKey{ck},
	}
	if bad.IsConsistent() {
		t.Error("overlapping delta reported consistent")
	}
	empty := &Delta{}
	if !empty.IsConsistent() {
		t.Error("empty delta reported inconsistent")
	}
}

func TestDeltaAccessors(t *testing.T) {
	d := &Delta{
		Adds: []Record{
			{CK: CompositeKey{"a", 1}, Value: []byte("xy")},
			{CK: CompositeKey{"b", 1}, Value: []byte("z")},
		},
		Dels: []CompositeKey{{"a", 0}},
	}
	wantBytes := (2 + RecordOverhead) + (1 + RecordOverhead)
	if got := d.Bytes(); got != wantBytes {
		t.Errorf("Bytes = %d, want %d", got, wantBytes)
	}
}

func TestRecordSize(t *testing.T) {
	r := Record{CK: CompositeKey{"k", 0}, Value: make([]byte, 100)}
	if r.Size() != 100+RecordOverhead {
		t.Errorf("Size = %d", r.Size())
	}
}

func TestSortHelpers(t *testing.T) {
	recs := []Record{
		{CK: CompositeKey{"b", 0}},
		{CK: CompositeKey{"a", 2}},
		{CK: CompositeKey{"a", 1}},
	}
	SortRecords(recs)
	if !sort.SliceIsSorted(recs, func(i, j int) bool { return recs[i].CK.Less(recs[j].CK) }) {
		t.Errorf("SortRecords failed: %v", recs)
	}
	cks := []CompositeKey{{"z", 0}, {"a", 5}, {"a", 3}}
	SortCompositeKeys(cks)
	if cks[0] != (CompositeKey{"a", 3}) || cks[2] != (CompositeKey{"z", 0}) {
		t.Errorf("SortCompositeKeys = %v", cks)
	}
}

func TestErrorWrapping(t *testing.T) {
	var err error = &KeyNotFoundError{Key: "k", Version: 3}
	if !errors.Is(err, ErrNotFound) {
		t.Error("KeyNotFoundError does not unwrap to ErrNotFound")
	}
	if err.Error() == "" {
		t.Error("empty error message")
	}
	err = &VersionUnknownError{Version: 9}
	if !errors.Is(err, ErrVersionUnknown) {
		t.Error("VersionUnknownError does not unwrap to ErrVersionUnknown")
	}
}
