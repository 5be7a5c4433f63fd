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
	"runtime"
	"slices"
	"strings"
	"sync"

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
type Item struct {
	// CK is the representative composite key (the member whose record is
	// stored raw; all others are delta-encoded descendants).
	CK types.CompositeKey
	// Members are the record ids in the item. Members[0] is the
	// representative.
	Members []uint32
	// Parents[i] is the index within Members of the member that member i is
	// delta-encoded against; Parents[0] is -1 (raw). The parent relation
	// follows the version tree, so members form a connected subtree (§3.4).
	Parents []int32
	// Encoded is the packed sub-chunk (EncodeItem: record framing included).
	// Its length is what the partitioner charges; Code re-frames it into a
	// segment, in no more bytes.
	Encoded []byte
	// Rank is the place of CK.Key among the primary keys of the items it was
	// ranked with (RankItems): items of one key share it, and of two keys the
	// one that sorts first has the smaller. Code orders a chunk's slots by
	// (Rank, CK.Version), which is composite-key order without a string
	// comparison, so the items of one instance are ranked together.
	Rank uint32
}

// PackedSize is the capacity charged when packing the item into a chunk.
func (it *Item) PackedSize() int { return len(it.Encoded) + itemOverhead }

// itemOverhead approximates per-item framing inside a chunk.
const itemOverhead = 4

// EncodeItem serializes a sub-chunk's records: the representative raw, every
// other member as a binary delta against its parent member. Records are
// resolved through the corpus.
func EncodeItem(c *corpus.Corpus, members []uint32, parents []int32) ([]byte, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("chunk: empty item")
	}
	if len(parents) != len(members) {
		return nil, fmt.Errorf("chunk: %d members but %d parents", len(members), len(parents))
	}
	// Sized once from the members' keys and values: exact when every member
	// is stored raw (always, for a single-record item), an upper bound when
	// some are deltas, which are shorter than the value they replace.
	size := codec.UvarintLen(uint64(len(members)))
	for i, id := range members {
		r := c.Record(id)
		size += codec.UvarintLen(uint64(len(r.CK.Key))) + len(r.CK.Key) + codec.UvarintLen(uint64(r.CK.Version)) +
			codec.UvarintLen(uint64(2*i+3)) + // the parent index, zigzag: −1 → 1, −2 → 3, p < i → 2p
			codec.UvarintLen(uint64(len(r.Value))) + len(r.Value)
	}
	buf := make([]byte, 0, size)
	buf = codec.PutUvarint(buf, uint64(len(members)))
	for i, id := range members {
		r := c.Record(id)
		buf = codec.PutCompositeKey(buf, r.CK)
		p := parents[i]
		if i == 0 {
			if p != -1 {
				return nil, fmt.Errorf("chunk: representative must have parent -1, got %d", p)
			}
			buf = codec.PutVarint(buf, -1)
			buf = codec.PutBytes(buf, r.Value)
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
			buf = codec.PutVarint(buf, -2)
			buf = codec.PutBytes(buf, r.Value)
		} else {
			buf = codec.PutVarint(buf, int64(p))
			buf = codec.PutBytes(buf, delta)
		}
	}
	return buf, nil
}

// RecordItems wraps each record of ids as a 1-member item (the k=1 case), in
// the order of ids, and ranks them (RankItems). An item's Encoded is
// EncodeItem's. A large ids is split over GOMAXPROCS goroutines, each cutting
// its items' bytes from one buffer; all items share one Parents.
func RecordItems(c *corpus.Corpus, ids []uint32) []Item {
	items := make([]Item, len(ids))
	members := slices.Clone(ids)
	build := func(lo, hi int) {
		size := 0
		for _, id := range ids[lo:hi] {
			size += recordItemLen(c.Record(id))
		}
		buf := make([]byte, 0, size)
		for i := lo; i < hi; i++ {
			r := c.Record(ids[i])
			start := len(buf)
			buf = appendRecordItem(buf, r)
			items[i] = Item{CK: r.CK, Members: members[i : i+1 : i+1], Parents: rawParents, Encoded: buf[start:len(buf):len(buf)]}
		}
	}
	workers := min(runtime.GOMAXPROCS(0), (len(ids)+itemSpan-1)/itemSpan)
	if workers <= 1 {
		build(0, len(ids))
	} else {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				build(w*len(ids)/workers, (w+1)*len(ids)/workers)
			}()
		}
		wg.Wait()
	}
	RankItems(c, items)
	return items
}

// itemSpan is the fewest records RecordItems hands a goroutine of its own: a
// flush's batch is built where it is asked for.
const itemSpan = 4096

// rawParents is the Parents of every single-record item, shared: nothing
// writes an item's Parents, and an append copies it.
var rawParents = []int32{-1}

// RecordPackedSize is the capacity a one-member item of record r is charged
// (Item.PackedSize of RecordItems').
func RecordPackedSize(r types.Record) int { return recordItemLen(r) + itemOverhead }

// recordItemLen is the length of EncodeItem's bytes for record r alone.
func recordItemLen(r types.Record) int {
	return 1 + codec.UvarintLen(uint64(len(r.CK.Key))) + len(r.CK.Key) + codec.UvarintLen(uint64(r.CK.Version)) +
		1 + codec.UvarintLen(uint64(len(r.Value))) + len(r.Value)
}

// appendRecordItem appends EncodeItem's bytes for record r alone: one member,
// stored raw.
func appendRecordItem(dst []byte, r types.Record) []byte {
	dst = codec.PutUvarint(dst, 1)
	dst = codec.PutCompositeKey(dst, r.CK)
	dst = codec.PutVarint(dst, -1)
	return codec.PutBytes(dst, r.Value)
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
	slices.SortFunc(keys, func(a, b uint32) int { return strings.Compare(string(c.Key(a)), string(c.Key(b))) })
	for r, k := range keys {
		rank[k] = uint32(r)
	}
	for i := range items {
		items[i].Rank = rank[c.KeyOf(items[i].Members[0])]
	}
}
