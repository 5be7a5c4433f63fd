// Package intset implements set algebra over sorted []uint32 slices. The
// Bottom-Up partitioner (paper §3.2) manipulates collections of record-id
// sets (π, ψ) whose sizes are proportional to deltas, making sorted-slice
// sets more memory- and cache-efficient than maps or dense bitmaps.
package intset

import (
	"slices"
	"sort"
)

// Set is a strictly-increasing sorted slice of uint32 ids. The zero value is
// an empty set.
type Set []uint32

// FromUnsorted builds a set from arbitrary input, sorting and deduplicating.
func FromUnsorted(ids []uint32) Set {
	if len(ids) == 0 {
		return nil
	}
	s := slices.Clone(ids)
	slices.Sort(s)
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// Contains reports membership via binary search.
func (s Set) Contains(v uint32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

// Len returns the cardinality.
func (s Set) Len() int { return len(s) }

// Clone returns an independent copy.
func (s Set) Clone() Set {
	if len(s) == 0 {
		return nil
	}
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Intersect returns s ∩ other.
func Intersect(a, b Set) Set {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	// Walk the shorter set with binary search when sizes are lopsided.
	if len(a) > len(b) {
		a, b = b, a
	}
	var out Set
	if len(b) > 16*len(a) {
		for _, v := range a {
			if b.Contains(v) {
				out = append(out, v)
			}
		}
		return out
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Diff returns a \ b.
func Diff(a, b Set) Set {
	if len(a) == 0 {
		return nil
	}
	if len(b) == 0 {
		return a.Clone()
	}
	out := make(Set, 0, len(a))
	i, j := 0, 0
	for i < len(a) {
		for j < len(b) && b[j] < a[i] {
			j++
		}
		if j >= len(b) || b[j] != a[i] {
			out = append(out, a[i])
		}
		i++
	}
	return out
}

// Union returns a ∪ b.
func Union(a, b Set) Set {
	if len(a) == 0 {
		return b.Clone()
	}
	if len(b) == 0 {
		return a.Clone()
	}
	out := make(Set, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Equal reports element-wise equality.
func Equal(a, b Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
