package lsm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync/atomic"

	"rstore/internal/codec"
	"rstore/internal/engine/reclog"
	"rstore/internal/types"
)

// SSTables are the immutable sorted runs of the LSM tree. The file layout
// follows the LevelDB shape:
//
//	[data block]* [index block] [bloom filter] [footer]
//
// Each data block holds prefix-compressed entries with restart points every
// sstRestartInterval entries, then a restart-offset array, the restart
// count, and a crc32 of everything before it. The index block maps each
// data block's last key to its (offset, length) handle; the bloom filter
// covers every key in the file; the fixed-size footer locates both and
// carries a magic number plus its own checksum. Blocks are the unit of both
// I/O and caching: a read loads (or finds cached) exactly one verified
// block and binary-searches its restart points.

const (
	// sstRestartInterval is the number of entries between full-key restart
	// points inside a data block.
	sstRestartInterval = 16

	// sstBlockBytes is the target uncompressed data-block size; a block is
	// cut once it crosses this threshold, so blocks slightly exceed it.
	sstBlockBytes = 4096

	// sstBloomBitsPerKey sizes the per-table bloom filter (~1% false
	// positives at 10 bits with 6 hash probes).
	sstBloomBitsPerKey = 10
	sstBloomHashes     = 6

	// sstFooterSize is the fixed footer: index handle (off,len u64 LE),
	// bloom handle (off,len u64 LE), crc32 of those 32 bytes, magic u32.
	sstFooterSize = 40

	// sstMagic identifies an lsm SSTable ("lsm1" LE).
	sstMagic = 0x316d736c

	// sstEntryKinds distinguish live values from tombstones in blocks.
	sstKindVal  byte = 1
	sstKindTomb byte = 2
)

// entryOverhead is the charge, beyond key and value bytes, that accounting
// attributes to one logical entry; dead-byte arithmetic on both WAL and
// SSTable entries uses the same constant so live ratios stay comparable.
const entryOverhead = 8

// logicalSize is the accounting weight of one entry.
func logicalSize(keyLen, valLen int) int64 {
	return int64(entryOverhead + keyLen + valLen)
}

// tableID hands out process-unique SSTable identities for block-cache keys:
// file sequence numbers alone would collide when several backends (one per
// cluster node) share a cache.
var tableID atomic.Uint64

// bloomHash is FNV-1a 64; it must be stable across processes because the
// filter is persisted inside the SSTable.
func bloomHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// bloomMayContain probes filter (layout: k(1 byte) bitmap) with
// double hashing: g_i = h1 + i*h2.
func bloomMayContain(filter []byte, key []byte) bool {
	if len(filter) < 2 {
		return true // degenerate filter: never exclude
	}
	k := int(filter[0])
	bits := filter[1:]
	nBits := uint64(len(bits)) * 8
	h := bloomHash(key)
	h1, h2 := h, h>>33|h<<31
	for i := 0; i < k; i++ {
		pos := (h1 + uint64(i)*h2) % nBits
		if bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
	}
	return true
}

// buildBloom constructs a filter over hashes with sstBloomBitsPerKey bits
// per key, in the layout bloomMayContain reads.
func buildBloom(hashes []uint64) []byte {
	nBits := len(hashes) * sstBloomBitsPerKey
	if nBits < 64 {
		nBits = 64
	}
	nBytes := (nBits + 7) / 8
	nBits = nBytes * 8
	out := make([]byte, 1+nBytes)
	out[0] = sstBloomHashes
	bits := out[1:]
	for _, h := range hashes {
		h1, h2 := h, h>>33|h<<31
		for i := 0; i < sstBloomHashes; i++ {
			pos := (h1 + uint64(i)*h2) % uint64(nBits)
			bits[pos/8] |= 1 << (pos % 8)
		}
	}
	return out
}

// sstWriter streams sorted entries into an SSTable file. add must be called
// in strictly increasing key order; finish seals the file (data flushed and
// fsynced) but does not rename or register it — that is the caller's commit
// protocol.
type sstWriter struct {
	f   reclog.File
	w   *bufio.Writer
	off int64

	block    []byte
	restarts []uint32
	nRestart int // entries since the last restart point
	lastKey  []byte

	index  []byte
	hashes []uint64

	// values/logicalTomb feed accounting: how many value entries were
	// written, and the logical size of the tombstones beside them.
	values      int64
	logicalTomb int64
}

func newSSTWriter(fsys reclog.FS, path string) (*sstWriter, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	return &sstWriter{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

func (sw *sstWriter) add(key, value []byte, tomb bool) error {
	// The first entry of every block is a restart point (a block must be
	// decodable standalone), as is every sstRestartInterval-th entry after.
	shared := 0
	if len(sw.block) > 0 && sw.nRestart < sstRestartInterval {
		max := len(sw.lastKey)
		if len(key) < max {
			max = len(key)
		}
		for shared < max && sw.lastKey[shared] == key[shared] {
			shared++
		}
	} else {
		sw.restarts = append(sw.restarts, uint32(len(sw.block)))
		sw.nRestart = 0
	}
	kind := sstKindVal
	if tomb {
		kind = sstKindTomb
	}
	sw.block = codec.PutUvarint(sw.block, uint64(shared))
	sw.block = codec.PutUvarint(sw.block, uint64(len(key)-shared))
	sw.block = codec.PutUvarint(sw.block, uint64(len(value)))
	sw.block = append(sw.block, kind)
	sw.block = append(sw.block, key[shared:]...)
	sw.block = append(sw.block, value...)
	sw.nRestart++
	sw.lastKey = append(sw.lastKey[:0], key...)
	sw.hashes = append(sw.hashes, bloomHash(key))
	if tomb {
		sw.logicalTomb += logicalSize(len(key), len(value))
	} else {
		sw.values++
	}
	if len(sw.block) >= sstBlockBytes {
		return sw.finishBlock()
	}
	return nil
}

// finishBlock seals the current data block (restart array, count, crc),
// writes it, and records its index entry.
func (sw *sstWriter) finishBlock() error {
	if len(sw.block) == 0 {
		return nil
	}
	for _, r := range sw.restarts {
		sw.block = binary.LittleEndian.AppendUint32(sw.block, r)
	}
	sw.block = binary.LittleEndian.AppendUint32(sw.block, uint32(len(sw.restarts)))
	sw.block = binary.LittleEndian.AppendUint32(sw.block, crc32.ChecksumIEEE(sw.block))
	if _, err := sw.w.Write(sw.block); err != nil {
		return fmt.Errorf("lsm: sstable write: %w", err)
	}
	sw.index = codec.PutBytes(sw.index, sw.lastKey)
	sw.index = codec.PutUvarint(sw.index, uint64(sw.off))
	sw.index = codec.PutUvarint(sw.index, uint64(len(sw.block)))
	sw.off += int64(len(sw.block))
	sw.block = sw.block[:0]
	sw.restarts = sw.restarts[:0]
	sw.nRestart = 0
	return nil
}

// finish writes the index, bloom filter, and footer, then flushes and
// fsyncs. The file is complete but still under its temporary name.
func (sw *sstWriter) finish() error {
	if err := sw.finishBlock(); err != nil {
		return err
	}
	indexOff := sw.off
	sw.index = binary.LittleEndian.AppendUint32(sw.index, crc32.ChecksumIEEE(sw.index))
	if _, err := sw.w.Write(sw.index); err != nil {
		return fmt.Errorf("lsm: sstable write: %w", err)
	}
	indexLen := int64(len(sw.index))
	bloomOff := indexOff + indexLen
	bloom := buildBloom(sw.hashes)
	bloom = binary.LittleEndian.AppendUint32(bloom, crc32.ChecksumIEEE(bloom))
	if _, err := sw.w.Write(bloom); err != nil {
		return fmt.Errorf("lsm: sstable write: %w", err)
	}
	var footer [sstFooterSize]byte
	binary.LittleEndian.PutUint64(footer[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(indexLen))
	binary.LittleEndian.PutUint64(footer[16:24], uint64(bloomOff))
	binary.LittleEndian.PutUint64(footer[24:32], uint64(len(bloom)))
	binary.LittleEndian.PutUint32(footer[32:36], crc32.ChecksumIEEE(footer[0:32]))
	binary.LittleEndian.PutUint32(footer[36:40], sstMagic)
	if _, err := sw.w.Write(footer[:]); err != nil {
		return fmt.Errorf("lsm: sstable write: %w", err)
	}
	if err := sw.w.Flush(); err != nil {
		return fmt.Errorf("lsm: sstable flush: %w", err)
	}
	if err := sw.f.Sync(); err != nil {
		return fmt.Errorf("lsm: sstable sync: %w", err)
	}
	return sw.f.Close()
}

// indexEntry locates one data block: the largest key it contains and its
// file handle.
type indexEntry struct {
	lastKey []byte
	off     int64
	length  int64
}

// sstable is an open, immutable table of one user table's run: file handle,
// decoded index, bloom filter, key range, and the two live counters
// accounting maintains under the backend's mutex.
type sstable struct {
	id    uint64 // block-cache identity, unique per open table per process
	seq   int64  // file sequence (naming, MANIFEST)
	path  string
	f     reclog.File
	size  int64
	index []indexEntry
	bloom []byte
	// first and last are the smallest and the largest key the table holds,
	// tombstones included: the first entry of its first block, and its last
	// block's index key. A read skips a table whose range misses its key,
	// and tiering leaves a table whose range meets no other table's alone.
	first, last []byte

	// live is the logical payload not shadowed by newer entries; dead =
	// size - live drives compaction victim selection. Guarded by the
	// owning Backend's mu.
	live int64
	// liveEntries counts the value entries no newer entry shadows. At zero
	// the table answers no read; retireLocked unlinks it once every older
	// table of its run is at zero too. (live cannot say this: it is a file
	// size less logical weights, not exactly zero for a dead table.)
	liveEntries int64
}

// openSSTable maps and verifies a table file: footer magic and checksum,
// then the index and bloom blocks (each crc-checked in full), and reads its
// first key from its first block. A table with no block is corrupt: no
// writer makes one.
func openSSTable(fsys reclog.FS, path string, seq int64) (_ *sstable, err error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	size := st.Size()
	if size < sstFooterSize {
		return nil, fmt.Errorf("%w: lsm sstable %s truncated (%d bytes)", types.ErrCorrupt, path, size)
	}
	var footer [sstFooterSize]byte
	if _, err := f.ReadAt(footer[:], size-sstFooterSize); err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	if binary.LittleEndian.Uint32(footer[36:40]) != sstMagic {
		return nil, fmt.Errorf("%w: lsm sstable %s bad magic", types.ErrCorrupt, path)
	}
	if binary.LittleEndian.Uint32(footer[32:36]) != crc32.ChecksumIEEE(footer[0:32]) {
		return nil, fmt.Errorf("%w: lsm sstable %s footer checksum", types.ErrCorrupt, path)
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:8]))
	indexLen := int64(binary.LittleEndian.Uint64(footer[8:16]))
	bloomOff := int64(binary.LittleEndian.Uint64(footer[16:24]))
	bloomLen := int64(binary.LittleEndian.Uint64(footer[24:32]))
	// Compared without sums, which wrap for handles near 2^63.
	inFile := func(off, n int64) bool { return off >= 0 && off <= size && n >= 4 && n <= size-off }
	if !inFile(indexOff, indexLen) || !inFile(bloomOff, bloomLen) {
		return nil, fmt.Errorf("%w: lsm sstable %s footer handles out of range", types.ErrCorrupt, path)
	}
	readChecked := func(off, n int64, what string) ([]byte, error) {
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, off); err != nil {
			return nil, fmt.Errorf("lsm: %w", err)
		}
		body, sum := buf[:n-4], binary.LittleEndian.Uint32(buf[n-4:])
		if crc32.ChecksumIEEE(body) != sum {
			return nil, fmt.Errorf("%w: lsm sstable %s %s checksum", types.ErrCorrupt, path, what)
		}
		return body, nil
	}
	rawIndex, err := readChecked(indexOff, indexLen, "index")
	if err != nil {
		return nil, err
	}
	bloom, err := readChecked(bloomOff, bloomLen, "bloom")
	if err != nil {
		return nil, err
	}
	var index []indexEntry
	for len(rawIndex) > 0 {
		key, rest, err := codec.Bytes(rawIndex)
		if err != nil {
			return nil, fmt.Errorf("%w: lsm sstable %s index entry", types.ErrCorrupt, path)
		}
		off, rest, err := codec.Uvarint(rest)
		if err != nil {
			return nil, fmt.Errorf("%w: lsm sstable %s index entry", types.ErrCorrupt, path)
		}
		length, rest2, err := codec.Uvarint(rest)
		if err != nil {
			return nil, fmt.Errorf("%w: lsm sstable %s index entry", types.ErrCorrupt, path)
		}
		if off > uint64(indexOff) || length > uint64(indexOff)-off {
			return nil, fmt.Errorf("%w: lsm sstable %s index handle out of range", types.ErrCorrupt, path)
		}
		index = append(index, indexEntry{lastKey: append([]byte(nil), key...), off: int64(off), length: int64(length)})
		rawIndex = rest2
	}
	if len(index) == 0 {
		return nil, fmt.Errorf("%w: lsm sstable %s holds no block", types.ErrCorrupt, path)
	}
	t := &sstable{
		id: tableID.Add(1), seq: seq, path: path, f: f, size: size,
		index: index, bloom: bloom, last: index[len(index)-1].lastKey,
	}
	body, err := t.loadBlock(0, nil)
	if err != nil {
		return nil, err
	}
	entries, _, _, err := blockEntries(body)
	if err != nil {
		return nil, err
	}
	if t.first, _, _, _, err = decodeEntry(entries, 0, nil); err != nil {
		return nil, err
	}
	return t, nil
}

// overlaps reports whether the key ranges of t and u meet.
func (t *sstable) overlaps(u *sstable) bool {
	return bytes.Compare(t.first, u.last) <= 0 && bytes.Compare(u.first, t.last) <= 0
}

func (t *sstable) close() error { return t.f.Close() }

// shadow is holder's: one of t's value entries is superseded.
func (t *sstable) shadow(keyLen, valLen int) bool {
	t.live -= logicalSize(keyLen, valLen)
	t.liveEntries--
	return t.liveEntries == 0
}

// loadBlock returns data block i, serving from cache when possible. The
// returned slice is the block body without its trailing crc (restart array
// and count still attached) and must be treated as read-only.
func (t *sstable) loadBlock(i int, cache *BlockCache) ([]byte, error) {
	h := t.index[i]
	if cache != nil {
		if b, ok := cache.get(t.id, h.off); ok {
			return b, nil
		}
	}
	buf := make([]byte, h.length)
	if _, err := t.f.ReadAt(buf, h.off); err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	if h.length < 12 {
		return nil, fmt.Errorf("%w: lsm sstable %s block %d too short", types.ErrCorrupt, t.path, i)
	}
	body, sum := buf[:h.length-4], binary.LittleEndian.Uint32(buf[h.length-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: lsm sstable %s block %d checksum", types.ErrCorrupt, t.path, i)
	}
	if cache != nil {
		cache.put(t.id, h.off, body)
	}
	return body, nil
}

// blockEntries splits a verified block body into its entry region and
// restart-offset array.
func blockEntries(body []byte) (entries []byte, restarts []byte, n int, err error) {
	if len(body) < 4 {
		return nil, nil, 0, fmt.Errorf("%w: lsm block trailer", types.ErrCorrupt)
	}
	n = int(binary.LittleEndian.Uint32(body[len(body)-4:]))
	rLen := n * 4
	if n < 1 || rLen+4 > len(body) {
		return nil, nil, 0, fmt.Errorf("%w: lsm block restart count %d", types.ErrCorrupt, n)
	}
	return body[:len(body)-4-rLen], body[len(body)-4-rLen : len(body)-4], n, nil
}

// decodeEntry reads one entry at pos, appending the unshared suffix onto
// key[:shared]. It returns the rebuilt key, value, kind, and next position.
func decodeEntry(entries []byte, pos int, key []byte) ([]byte, []byte, byte, int, error) {
	if pos > len(entries) {
		return nil, nil, 0, 0, fmt.Errorf("%w: lsm block entry offset %d", types.ErrCorrupt, pos)
	}
	rest := entries[pos:]
	shared, rest, err := codec.Uvarint(rest)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("%w: lsm block entry", types.ErrCorrupt)
	}
	unshared, rest, err := codec.Uvarint(rest)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("%w: lsm block entry", types.ErrCorrupt)
	}
	vlen, rest, err := codec.Uvarint(rest)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("%w: lsm block entry", types.ErrCorrupt)
	}
	if len(rest) < 1 || shared > uint64(len(key)) || unshared > uint64(len(rest)-1) || vlen > uint64(len(rest)-1)-unshared {
		return nil, nil, 0, 0, fmt.Errorf("%w: lsm block entry bounds", types.ErrCorrupt)
	}
	kind := rest[0]
	rest = rest[1:]
	key = append(key[:shared], rest[:unshared]...)
	val := rest[unshared : unshared+vlen]
	next := len(entries) - len(rest) + int(unshared+vlen)
	return key, val, kind, next, nil
}

// get point-looks-up key in the table: range check, bloom probe, index
// binary search, block load, restart binary search, linear scan. The
// returned value aliases the cached block.
func (t *sstable) get(key []byte, cache *BlockCache) (val []byte, tomb, ok bool, err error) {
	if bytes.Compare(key, t.first) < 0 || bytes.Compare(key, t.last) > 0 || !bloomMayContain(t.bloom, key) {
		return nil, false, false, nil
	}
	i := sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i].lastKey, key) >= 0
	})
	if i == len(t.index) {
		return nil, false, false, nil
	}
	body, err := t.loadBlock(i, cache)
	if err != nil {
		return nil, false, false, err
	}
	entries, restarts, n, err := blockEntries(body)
	if err != nil {
		return nil, false, false, err
	}
	// Binary search restart points for the last restart with key <= target.
	// Restart entries have shared == 0, so their keys decode standalone.
	restartKey := func(j int) ([]byte, error) {
		pos := int(binary.LittleEndian.Uint32(restarts[j*4:]))
		k, _, _, _, err := decodeEntry(entries, pos, nil)
		return k, err
	}
	var serr error
	idx := sort.Search(n, func(j int) bool {
		if serr != nil {
			return true
		}
		k, err := restartKey(j)
		if err != nil {
			serr = err
			return true
		}
		return bytes.Compare(k, key) > 0
	})
	if serr != nil {
		return nil, false, false, serr
	}
	start := 0
	if idx > 0 {
		start = int(binary.LittleEndian.Uint32(restarts[(idx-1)*4:]))
	}
	var kbuf []byte
	pos := start
	for pos < len(entries) {
		k, v, kind, next, err := decodeEntry(entries, pos, kbuf)
		if err != nil {
			return nil, false, false, err
		}
		switch bytes.Compare(k, key) {
		case 0:
			return v, kind == sstKindTomb, true, nil
		case 1:
			return nil, false, false, nil // passed it: not in this block
		}
		kbuf, pos = k, next
	}
	return nil, false, false, nil
}

// sstIter walks a table in key order, implementing the merge source
// interface. It loads blocks lazily through the cache.
type sstIter struct {
	t     *sstable
	cache *BlockCache

	bi      int // current block index
	entries []byte
	pos     int
	curKey  []byte
	curVal  []byte
	curKind byte
	valid_  bool
}

// iter positions at the table's first entry.
func (t *sstable) iter(cache *BlockCache) (*sstIter, error) {
	it := &sstIter{t: t, cache: cache, bi: -1}
	if err := it.advance(); err != nil {
		return nil, err
	}
	return it, nil
}

func (it *sstIter) loadBlockAt(bi int) error {
	body, err := it.t.loadBlock(bi, it.cache)
	if err != nil {
		return err
	}
	entries, _, _, err := blockEntries(body)
	if err != nil {
		return err
	}
	it.bi, it.entries, it.pos = bi, entries, 0
	return nil
}

// advance steps to the next entry, crossing block boundaries.
func (it *sstIter) advance() error {
	for it.pos >= len(it.entries) {
		if it.bi+1 >= len(it.t.index) {
			it.valid_ = false
			return nil
		}
		if err := it.loadBlockAt(it.bi + 1); err != nil {
			return err
		}
	}
	k, v, kind, next, err := decodeEntry(it.entries, it.pos, it.curKey)
	if err != nil {
		return err
	}
	it.curKey, it.curVal, it.curKind, it.pos = k, v, kind, next
	it.valid_ = true
	return nil
}

func (it *sstIter) valid() bool   { return it.valid_ }
func (it *sstIter) key() []byte   { return it.curKey }
func (it *sstIter) value() []byte { return it.curVal }
func (it *sstIter) tomb() bool    { return it.curKind == sstKindTomb }
func (it *sstIter) next() error   { return it.advance() }
