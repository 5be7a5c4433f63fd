package lsm

import (
	"container/list"
	"sync"
)

// BlockCache is a byte-capacity-bounded LRU over verified SSTable data
// blocks, shared across every Backend handed the same instance (a cluster's
// worth of nodes in one process, typically). Keys are (table identity,
// block offset); table identities are process-unique and never reused, so
// entries for compacted-away tables simply age out.
//
// The cache is sharded to keep lock contention off the hot read path: a
// cheap hash of the key picks one of cacheShards independent LRUs.
type BlockCache struct {
	shards [cacheShards]cacheShard
}

const cacheShards = 16

type cacheKey struct {
	table uint64
	off   int64
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int64
	size  int64
	ll    *list.List // front = most recent
	items map[cacheKey]*list.Element
}

type cacheEntry struct {
	key   cacheKey
	block []byte
}

// NewBlockCache builds a cache bounded by 32 MiB of block payload.
func NewBlockCache() *BlockCache { return newBlockCache(32 << 20) }

// newBlockCache builds a cache bounded by capBytes of block payload, at
// least one byte a shard (lsm's tests set small capacities).
func newBlockCache(capBytes int64) *BlockCache {
	c := &BlockCache{}
	per := capBytes / cacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = cacheShard{cap: per, ll: list.New(), items: map[cacheKey]*list.Element{}}
	}
	return c
}

func (c *BlockCache) shard(k cacheKey) *cacheShard {
	h := k.table*0x9e3779b97f4a7c15 + uint64(k.off)
	return &c.shards[(h>>57)%cacheShards]
}

// get returns the cached block for (table, off). The slice is shared and
// must be treated as read-only by every caller.
func (c *BlockCache) get(table uint64, off int64) ([]byte, bool) {
	k := cacheKey{table, off}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).block, true
}

// put inserts a verified block, evicting least-recently-used entries until
// the shard fits its budget. block is retained as-is: callers hand over
// ownership and must not mutate it afterwards.
func (c *BlockCache) put(table uint64, off int64, block []byte) {
	k := cacheKey{table, off}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		// Identical immutable content; just refresh recency.
		s.ll.MoveToFront(el)
		return
	}
	el := s.ll.PushFront(&cacheEntry{key: k, block: block})
	s.items[k] = el
	s.size += int64(len(block))
	for s.size > s.cap && s.ll.Len() > 1 {
		back := s.ll.Back()
		ent := back.Value.(*cacheEntry)
		s.ll.Remove(back)
		delete(s.items, ent.key)
		s.size -= int64(len(ent.block))
	}
}
