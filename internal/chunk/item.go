// Package chunk implements RStore's physical storage unit (paper §2.4): the
// chunk — an approximately fixed-size group of records stored under one
// internally-generated chunk-id in the backing KVS — together with its chunk
// map M_Ci (the per-chunk slice of the key×version×chunk mapping of Fig 3),
// and the builder that materializes chunks from a partitioning assignment.
//
// Chunks are divided into sub-chunks: groups of records with the same
// primary key stored in compressed fashion (members are binary-delta-encoded
// against a parent member). A sub-chunk with a single record stores it raw.
// A chunk is stored as key-ordered segments of whole sub-chunks (segment.go),
// each a KVS value of its own, so reads transfer segments, not chunks.
package chunk

import (
	"fmt"
	"slices"
	"strings"

	"rstore/internal/bdiff"
	"rstore/internal/codec"
	"rstore/internal/corpus"
	"rstore/internal/types"
)

// ID identifies a chunk. IDs are dense per build generation; the KVS keys of
// a chunk's segments are derived via SegmentKey.
type ID = uint32

// Item is the unit the partitioning algorithms assign to chunks: a sub-chunk
// of one or more records sharing a primary key (paper §3.4). With
// compression disabled (k=1) every item holds exactly one record.
//
// An item borrows its representative's value from the corpus record rather
// than copying it: Code reads the value where the corpus keeps it, so a bulk
// load builds its items without touching the corpus's bytes.
type Item struct {
	// CK is the representative composite key (the member whose record is
	// stored raw; all others are delta-encoded descendants).
	CK types.CompositeKey
	// Value is the representative's value, the corpus record's own bytes.
	Value []byte
	// Encoded frames the members after the representative as EncodeItem
	// does: empty for a single-record item, and only for one. With CK and
	// Value it is all EncodedLen reads, in the item's first 64 bytes.
	Encoded []byte
	// Members are the record ids in the item. Members[0] is the
	// representative.
	Members []uint32
	// Parents[i] is the index within Members of the member that member i is
	// delta-encoded against; Parents[0] is -1 (raw). The parent relation
	// follows the version tree, so members form a connected subtree (§3.4).
	Parents []int32
	// Rank is the place of CK.Key among the primary keys of the items it was
	// ranked with (RankItems), or among all of its corpus's keys (RankAll):
	// items of one key share it, and of two keys the one that sorts first has
	// the smaller. Code orders a chunk's slots by (Rank, CK.Version), which
	// is composite-key order without a string comparison, so the items of
	// one instance are ranked together.
	Rank uint32
}

// EncodedLen is the length of EncodeItem's bytes for the item: what the
// partitioner charges, and what Code re-frames into a segment in no more
// bytes.
func (it *Item) EncodedLen() int {
	n := 1 // the member count of a single-record item
	if len(it.Encoded) > 0 {
		n = codec.UvarintLen(uint64(len(it.Members)))
	}
	return n + rawMemberLen(it.CK, it.Value) + len(it.Encoded)
}

// PackedSize is the capacity charged when packing the item into a chunk.
func (it *Item) PackedSize() int { return it.EncodedLen() + itemOverhead }

// itemOverhead approximates per-item framing inside a chunk.
const itemOverhead = 4

// NewItem builds the sub-chunk of members: the representative's value
// borrowed from the corpus, every other member framed as EncodeItem frames
// it. Records are resolved through the corpus.
func NewItem(c *corpus.Corpus, members []uint32, parents []int32) (Item, error) {
	if err := checkMembers(members, parents); err != nil {
		return Item{}, err
	}
	r := c.Record(members[0])
	it := Item{CK: r.CK, Value: r.Value, Members: members, Parents: parents}
	if len(members) > 1 {
		var err error
		it.Encoded, err = appendMembers(make([]byte, 0, membersLen(c, members, 1)), c, members, parents, 1)
		if err != nil {
			return Item{}, err
		}
	}
	return it, nil
}

// EncodeItem serializes a sub-chunk's records: the representative raw, every
// other member as a binary delta against its parent member. Records are
// resolved through the corpus.
func EncodeItem(c *corpus.Corpus, members []uint32, parents []int32) ([]byte, error) {
	if err := checkMembers(members, parents); err != nil {
		return nil, err
	}
	n := uint64(len(members))
	buf := codec.PutUvarint(make([]byte, 0, codec.UvarintLen(n)+membersLen(c, members, 0)), n)
	return appendMembers(buf, c, members, parents, 0)
}

// checkMembers refuses an item of no members, or of parents that do not
// match them.
func checkMembers(members []uint32, parents []int32) error {
	if len(members) == 0 {
		return fmt.Errorf("chunk: empty item")
	}
	if len(parents) != len(members) {
		return fmt.Errorf("chunk: %d members but %d parents", len(members), len(parents))
	}
	if parents[0] != -1 {
		return fmt.Errorf("chunk: representative must have parent -1, got %d", parents[0])
	}
	return nil
}

// membersLen bounds the length of the framing of members[from:]: exact when
// every member is stored raw, an upper bound when some are deltas, which are
// shorter than the value they replace.
func membersLen(c *corpus.Corpus, members []uint32, from int) int {
	size := 0
	for i := from; i < len(members); i++ {
		r := c.Record(members[i])
		size += codec.UvarintLen(uint64(len(r.CK.Key))) + len(r.CK.Key) + codec.UvarintLen(uint64(r.CK.Version)) +
			codec.UvarintLen(uint64(2*i+3)) + // the parent index, zigzag: −1 → 1, −2 → 3, p < i → 2p
			codec.UvarintLen(uint64(len(r.Value))) + len(r.Value)
	}
	return size
}

// appendMembers appends the framing of members[from:] to dst.
func appendMembers(dst []byte, c *corpus.Corpus, members []uint32, parents []int32, from int) ([]byte, error) {
	for i := from; i < len(members); i++ {
		r := c.Record(members[i])
		dst = codec.PutCompositeKey(dst, r.CK)
		p := parents[i]
		if i == 0 {
			dst = codec.PutVarint(dst, -1)
			dst = codec.PutBytes(dst, r.Value)
			continue
		}
		if p < 0 || int(p) >= i {
			return nil, fmt.Errorf("chunk: member %d has invalid parent %d (parents must precede children)", i, p)
		}
		parentVal := c.Record(members[p]).Value
		delta := bdiff.Encode(nil, parentVal, r.Value)
		if len(delta) >= len(r.Value) {
			// Degenerate delta (incompressible payload): store raw,
			// flagged by parent -2.
			dst = codec.PutVarint(dst, -2)
			dst = codec.PutBytes(dst, r.Value)
		} else {
			dst = codec.PutVarint(dst, int64(p))
			dst = codec.PutBytes(dst, delta)
		}
	}
	return dst, nil
}

// RecordItems wraps each record of ids as a 1-member item (the k=1 case), in
// the order of ids. All items share one Parents, and each borrows its
// record's value. They are not ranked: rank them together (RankItems,
// RankAll) before coding.
func RecordItems(c *corpus.Corpus, ids []uint32) []Item {
	items := make([]Item, len(ids))
	members := slices.Clone(ids)
	for i, id := range ids {
		r := c.Record(id)
		items[i] = Item{CK: r.CK, Value: r.Value, Members: members[i : i+1 : i+1], Parents: rawParents}
	}
	return items
}

// rawParents is the Parents of every single-record item, shared: nothing
// writes an item's Parents, and an append copies it.
var rawParents = []int32{-1}

// RecordPackedSize is the capacity a one-member item of record r is charged
// (Item.PackedSize of RecordItems').
func RecordPackedSize(r types.Record) int { return 1 + rawMemberLen(r.CK, r.Value) + itemOverhead }

// rawMemberLen is the length of EncodeItem's framing of a raw representative
// of key ck and value value.
func rawMemberLen(ck types.CompositeKey, value []byte) int {
	return codec.UvarintLen(uint64(len(ck.Key))) + len(ck.Key) + codec.UvarintLen(uint64(ck.Version)) +
		1 + codec.UvarintLen(uint64(len(value))) + len(value)
}

// RankItems sets every item's Rank from its representative's primary key:
// the distinct keys of items are sorted once, so a chunk's slots are ordered
// by integers (Code).
func RankItems(c *corpus.Corpus, items []Item) {
	rank := make([]uint32, c.NumKeys()) // key id → 1 once some item has the key, then its rank
	var keys []uint32
	for i := range items {
		if k := c.KeyOf(items[i].Members[0]); rank[k] == 0 {
			rank[k] = 1
			keys = append(keys, k)
		}
	}
	for r, k := range sortKeys(c, keys) {
		rank[k] = uint32(r)
	}
	setRanks(c, items, rank)
}

// RankAll ranks items as RankItems does, by the place of each one's key among
// all of c's keys, and returns those keys, ascending: a placement run over the
// whole corpus ranks its items and learns the corpus's key order from one
// sort.
func RankAll(c *corpus.Corpus, items []Item) []types.Key {
	ids := make([]uint32, c.NumKeys())
	for k := range ids {
		ids[k] = uint32(k)
	}
	keys := make([]types.Key, len(ids))
	rank := make([]uint32, len(ids))
	for r, k := range sortKeys(c, ids) {
		keys[r], rank[k] = c.Key(k), uint32(r)
	}
	setRanks(c, items, rank)
	return keys
}

// sortKeys sorts the key ids ids by their keys, in place, and returns them.
func sortKeys(c *corpus.Corpus, ids []uint32) []uint32 {
	slices.SortFunc(ids, func(a, b uint32) int { return strings.Compare(string(c.Key(a)), string(c.Key(b))) })
	return ids
}

// setRanks sets every item's Rank to rank's entry for its key id.
func setRanks(c *corpus.Corpus, items []Item, rank []uint32) {
	for i := range items {
		items[i].Rank = rank[c.KeyOf(items[i].Members[0])]
	}
}
