// Package types defines the fundamental data model of RStore: primary keys,
// version identifiers, composite keys, records, and deltas between versions.
//
// The unit of storage and retrieval is a Record. A record is immutable: any
// change to a record produces a new record that is identified by a composite
// key ⟨primary key, origin version⟩, where the origin version is the version
// in which that record first appeared (paper §2.1).
package types

import (
	"fmt"
	"sort"
)

// Key is the primary key of a record within the collection. RStore makes no
// assumption about key structure beyond uniqueness within a version.
type Key string

// VersionID identifies a version (snapshot) of the collection. Version
// identifiers are assigned by the system at commit time and are unique even
// for identical contents committed twice (paper §2.4, Data Ingest Module).
// The root version of a dataset always has VersionID 0.
type VersionID uint32

// InvalidVersion is a sentinel for "no version". The root version is 0, so
// the sentinel uses the maximum value.
const InvalidVersion = VersionID(^uint32(0))

// CompositeKey uniquely identifies a record in the global address space:
// the primary key plus the version in which the record originated. Note that
// the version component is NOT the version being queried — a record that is
// unchanged across versions keeps the composite key of its origin.
type CompositeKey struct {
	Key     Key
	Version VersionID
}

func (ck CompositeKey) String() string {
	return fmt.Sprintf("⟨%s,V%d⟩", string(ck.Key), ck.Version)
}

// Less orders composite keys by primary key then origin version, the order
// used for range scans and for the sub-chunk construction sort (§3.4).
func (ck CompositeKey) Less(other CompositeKey) bool {
	if ck.Key != other.Key {
		return ck.Key < other.Key
	}
	return ck.Version < other.Version
}

// Record is the primary unit of storage and retrieval: an immutable value
// identified by a composite key. The payload is opaque to RStore — JSON
// documents, text, or binary are all handled identically.
type Record struct {
	CK    CompositeKey
	Value []byte
}

// Size returns the billable size of the record inside a chunk: payload bytes
// plus a fixed per-record overhead approximating the serialized key/version
// framing.
func (r Record) Size() int { return len(r.Value) + RecordOverhead }

// RecordOverhead is the per-record serialization overhead, in bytes, charged
// when packing records into fixed-capacity chunks.
const RecordOverhead = 16

// Delta is the set of changes from a parent version to a child version
// (paper §2.1). Adds holds records newly created in the child — brand-new
// primary keys as well as new versions of modified keys (their composite keys
// carry the child version). Dels holds composite keys of parent records that
// are no longer visible in the child — deletions as well as the old versions
// of modified keys.
//
// A delta is symmetric: applied forward it derives the child from the parent,
// applied backward (swapping Adds/Dels roles) it derives the parent from the
// child.
type Delta struct {
	Adds []Record
	Dels []CompositeKey
}

// IsConsistent reports whether the delta satisfies the consistency condition
// of §3.2: the positive and negative sets are disjoint.
func (d *Delta) IsConsistent() bool {
	if len(d.Adds) == 0 || len(d.Dels) == 0 {
		return true
	}
	dels := make(map[CompositeKey]struct{}, len(d.Dels))
	for _, ck := range d.Dels {
		dels[ck] = struct{}{}
	}
	for _, r := range d.Adds {
		if _, ok := dels[r.CK]; ok {
			return false
		}
	}
	return true
}

// Bytes returns the total payload volume carried by the delta (adds only;
// deletions carry keys, not payloads).
func (d *Delta) Bytes() int {
	total := 0
	for _, r := range d.Adds {
		total += r.Size()
	}
	return total
}

// SortRecords orders records by composite key (primary key, then origin
// version) in place.
func SortRecords(rs []Record) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].CK.Less(rs[j].CK) })
}

// SortCompositeKeys orders composite keys in place.
func SortCompositeKeys(cks []CompositeKey) {
	sort.Slice(cks, func(i, j int) bool { return cks[i].Less(cks[j]) })
}
