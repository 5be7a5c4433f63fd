package engine

// The hash-tree seam: the optional extension anti-entropy rides on. A
// backend that implements HashRanger can summarize a table's contents as a
// fixed-fanout digest tree — one 64-bit root over per-bucket leaf digests —
// so two replicas can detect divergence by exchanging O(fanout) bytes and
// drill into exactly the buckets that differ instead of comparing every
// key.
//
// The tree parameters are part of the wire contract (docs/FORMATS.md):
//
//   - Keys are partitioned into buckets by hash, not by lexicographic
//     split: bucket(key) = FNV-1a-64(key) mod fanout. Hash partitioning
//     keeps bucket b comparable across replicas whose key sets have
//     diverged — a lexicographic split would shift every boundary.
//   - An entry hashes as FNV-1a-64 over uvarint(len(key)) || key ||
//     stored-value-bytes; the length prefix keeps (key, value) boundaries
//     unambiguous. For cluster data the stored value is the LWW envelope,
//     so two replicas holding the same payload at different timestamps
//     still hash apart.
//   - A leaf digest is the XOR of its entries' hashes (order-independent,
//     because backends scan in unspecified order; an empty bucket is 0)
//     plus the entry count.
//   - The root is FNV-1a-64 over the fanout and every leaf's (hash, count)
//     in bucket order.
//
// All of it is deterministic across backends and across restarts: equal
// (key → stored-bytes) sets produce equal digests on any implementation.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// ErrNoHashRange reports that a backend does not implement HashRanger (or,
// over the wire, that the daemon's backend does not). The anti-entropy
// loop matches it with errors.Is and skips the node.
var ErrNoHashRange = errors.New("engine: backend does not support hash ranges")

// DefaultHashFanout is the bucket count the anti-entropy loop requests: a
// whole-table comparison costs fanout leaf digests on the wire, and each
// divergent key costs one bucket drill-down of roughly keys/fanout
// entries.
const DefaultHashFanout = 64

// MaxHashFanout bounds the fanout any caller — including a hostile wire
// peer — may request, so a digest reply can never be made to allocate an
// unbounded leaf slice.
const MaxHashFanout = 1 << 12

// LeafDigest summarizes one bucket of a hash tree.
type LeafDigest struct {
	// Hash is the XOR of the bucket's entry hashes; 0 for an empty bucket.
	Hash uint64
	// Keys is the number of keys in the bucket.
	Keys uint64
}

// TreeDigest is a whole-table hash tree: the root plus every leaf in
// bucket order.
type TreeDigest struct {
	// Root commits to every leaf (hash and count) and the fanout.
	Root uint64
	// Leaves holds exactly fanout entries, index = bucket.
	Leaves []LeafDigest
	// Bytes is the key+value volume hashed to produce this digest — the
	// I/O the call cost. A memoized implementation reports 0 on a hit.
	Bytes int64
}

// KeyHash is one entry of a bucket drill-down: the key and its entry hash.
type KeyHash struct {
	Key  string
	Hash uint64
}

// HashRanger is the optional hash-tree extension of Backend. Callers
// discover it by type assertion; backends that cannot enumerate their
// contents cheaply simply do not implement it (ErrNoHashRange). An engine
// with nothing better than a sweep implements it with ScanHashTree and
// ScanHashRange.
type HashRanger interface {
	// HashTree digests every (key, stored-value) of table into a
	// fanout-bucket tree. A missing table is an empty tree, not an error.
	HashTree(ctx context.Context, table string, fanout int) (TreeDigest, error)

	// HashRange lists the keys of one bucket with their entry hashes, in
	// ascending key order. A missing table or empty bucket returns an
	// empty list.
	HashRange(ctx context.Context, table string, fanout, bucket int) ([]KeyHash, error)
}

// CheckHashFanout validates a HashTree fanout before any allocation is
// sized from it. Shared by every backend so a hostile wire value is
// rejected identically everywhere.
func CheckHashFanout(fanout int) error {
	if fanout < 1 || fanout > MaxHashFanout {
		return fmt.Errorf("engine: hash fanout %d out of range [1, %d]", fanout, MaxHashFanout)
	}
	return nil
}

// CheckHashBucket validates a HashRange (fanout, bucket) pair.
func CheckHashBucket(fanout, bucket int) error {
	if err := CheckHashFanout(fanout); err != nil {
		return err
	}
	if bucket < 0 || bucket >= fanout {
		return fmt.Errorf("engine: hash bucket %d out of range [0, %d)", bucket, fanout)
	}
	return nil
}

// fnv1a64 constants (FNV-1a, 64 bit) — the same hash family the lsm bloom
// filter persists, chosen here for the same reason: stable across builds,
// cheap, and dependency-free.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// BucketOf maps a key to its tree bucket: FNV-1a-64(key) mod fanout.
func BucketOf(key string, fanout int) int {
	return int(fnvString(fnvOffset64, key) % uint64(fanout))
}

// EntryHash hashes one stored entry: FNV-1a-64 over uvarint(len(key)) ||
// key || value.
func EntryHash(key string, value []byte) uint64 {
	var pfx [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(pfx[:], uint64(len(key)))
	h := fnvBytes(fnvOffset64, pfx[:n])
	h = fnvString(h, key)
	return fnvBytes(h, value)
}

// TreeHasher accumulates a table's entries into a TreeDigest. Entries may
// be added in any order; each key must be added at most once.
type TreeHasher struct {
	leaves []LeafDigest
	bytes  int64
}

// NewTreeHasher returns an accumulator for a fanout-bucket tree. The
// caller must have validated fanout with CheckHashFanout.
func NewTreeHasher(fanout int) *TreeHasher {
	return &TreeHasher{leaves: make([]LeafDigest, fanout)}
}

// Add folds one stored entry into its bucket.
func (t *TreeHasher) Add(key string, value []byte) {
	b := BucketOf(key, len(t.leaves))
	t.leaves[b].Hash ^= EntryHash(key, value)
	t.leaves[b].Keys++
	t.bytes += int64(len(key) + len(value))
}

// Digest seals the accumulated entries into a TreeDigest. The hasher may
// not be reused afterwards (the digest aliases its leaf slice).
func (t *TreeHasher) Digest() TreeDigest {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(len(t.leaves)))
	root := fnvBytes(fnvOffset64, buf[:8])
	for _, l := range t.leaves {
		binary.LittleEndian.PutUint64(buf[:8], l.Hash)
		binary.LittleEndian.PutUint64(buf[8:], l.Keys)
		root = fnvBytes(root, buf[:])
	}
	return TreeDigest{Root: root, Leaves: t.leaves, Bytes: t.bytes}
}

// ScanHashTree answers HashTree with one Scan of table.
func ScanHashTree(ctx context.Context, be Backend, table string, fanout int) (TreeDigest, error) {
	if err := CheckHashFanout(fanout); err != nil {
		return TreeDigest{}, err
	}
	th := NewTreeHasher(fanout)
	if err := be.Scan(ctx, table, func(k string, v []byte) bool {
		th.Add(k, v)
		return true
	}); err != nil {
		return TreeDigest{}, err
	}
	return th.Digest(), nil
}

// ScanHashRange answers HashRange with one Scan of table, sorting the
// bucket's keys (a no-op pass over a key-ordered scan).
func ScanHashRange(ctx context.Context, be Backend, table string, fanout, bucket int) ([]KeyHash, error) {
	if err := CheckHashBucket(fanout, bucket); err != nil {
		return nil, err
	}
	var out []KeyHash
	if err := be.Scan(ctx, table, func(k string, v []byte) bool {
		if BucketOf(k, fanout) == bucket {
			out = append(out, KeyHash{Key: k, Hash: EntryHash(k, v)})
		}
		return true
	}); err != nil {
		return nil, err
	}
	slices.SortFunc(out, func(a, b KeyHash) int { return strings.Compare(a.Key, b.Key) })
	return out, nil
}
