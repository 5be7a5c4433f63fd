package lsm

import "bytes"

// The memtable is a skiplist over one run's keys, holding every write to
// its user table since the last flush in sorted order: point lookups
// and ordered iteration are both O(log n), and a flush walks level 0
// sequentially to emit an already-sorted SSTable. Entries are either values
// or tombstones; a tombstone must be kept as a real entry (not a map
// deletion) because it shadows older versions living in the SSTables below.
//
// The memtable is not safe for concurrent use on its own; the Backend's
// mutex serializes access.

// memMaxHeight bounds skiplist towers; 2^16 entries per level-16 node is
// far beyond any memtable that respects MemtableBytes.
const memMaxHeight = 16

type memNode struct {
	key   []byte
	value []byte
	tomb  bool
	next  []*memNode
}

type memtable struct {
	head   *memNode
	height int
	rnd    uint64
	count  int
	// bytes approximates resident size (keys + values + tower overhead);
	// the Backend sums it over the runs for the flush trigger, and keeps
	// exact live-payload accounting itself.
	bytes int64
}

func newMemtable() *memtable {
	return &memtable{
		head:   &memNode{next: make([]*memNode, memMaxHeight)},
		height: 1,
		rnd:    0x9e3779b97f4a7c15, // fixed seed: determinism beats entropy here
	}
}

// randHeight draws a tower height with P(h+1 | h) = 1/4.
func (m *memtable) randHeight() int {
	h := 1
	for h < memMaxHeight {
		m.rnd ^= m.rnd << 13
		m.rnd ^= m.rnd >> 7
		m.rnd ^= m.rnd << 17
		if m.rnd&3 != 0 {
			break
		}
		h++
	}
	return h
}

// findGE returns the first node with key >= target, filling prev (when
// non-nil) with the rightmost node before target at every level — the
// splice points for an insert.
func (m *memtable) findGE(target []byte, prev *[memMaxHeight]*memNode) *memNode {
	x := m.head
	for h := m.height - 1; h >= 0; h-- {
		for x.next[h] != nil && bytes.Compare(x.next[h].key, target) < 0 {
			x = x.next[h]
		}
		if prev != nil {
			prev[h] = x
		}
	}
	return x.next[0]
}

// get returns the entry under key: (value, isTombstone, present).
func (m *memtable) get(key []byte) ([]byte, bool, bool) {
	n := m.findGE(key, nil)
	if n == nil || !bytes.Equal(n.key, key) {
		return nil, false, false
	}
	return n.value, n.tomb, true
}

// holdsWithin reports whether some entry's key, tombstones included, lies in
// [lo, hi].
func (m *memtable) holdsWithin(lo, hi []byte) bool {
	n := m.findGE(lo, nil)
	return n != nil && bytes.Compare(n.key, hi) <= 0
}

// set installs value (or a tombstone) under key, replacing any existing
// entry in place, and reports what it replaced: the previous value length,
// and whether an entry existed. Both key and value must already be safe to
// retain (copied by the caller).
func (m *memtable) set(key, value []byte, tomb bool) (prevLen int, existed bool) {
	var prev [memMaxHeight]*memNode
	n := m.findGE(key, &prev)
	if n != nil && bytes.Equal(n.key, key) {
		prevLen = len(n.value)
		m.bytes += int64(len(value) - prevLen)
		n.value, n.tomb = value, tomb
		return prevLen, true
	}
	h := m.randHeight()
	if h > m.height {
		for i := m.height; i < h; i++ {
			prev[i] = m.head
		}
		m.height = h
	}
	nn := &memNode{key: key, value: value, tomb: tomb, next: make([]*memNode, h)}
	for i := 0; i < h; i++ {
		nn.next[i] = prev[i].next[i]
		prev[i].next[i] = nn
	}
	m.count++
	m.bytes += int64(len(key) + len(value) + 48) // 48 ~ node + tower overhead
	return 0, false
}

// memIter walks the memtable in key order; it implements the source
// interface merged iterators consume.
type memIter struct {
	n *memNode
}

// iter positions at the first entry.
func (m *memtable) iter() *memIter { return &memIter{n: m.head.next[0]} }

func (it *memIter) valid() bool   { return it.n != nil }
func (it *memIter) key() []byte   { return it.n.key }
func (it *memIter) value() []byte { return it.n.value }
func (it *memIter) tomb() bool    { return it.n.tomb }
func (it *memIter) next() error   { it.n = it.n.next[0]; return nil }
