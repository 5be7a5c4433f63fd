package baseline

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"rstore/internal/bdiff"
	"rstore/internal/chunk"
	"rstore/internal/codec"
	"rstore/internal/corpus"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// Subchunk is the group-by-primary-key layout (§2.2): all records sharing a
// key are stored compressed under that key. Storage cost and record-
// evolution queries are optimal; full or partial version retrieval must
// fetch every key group ("all chunks must be retrieved for any version
// query", §5.2).
type Subchunk struct {
	KV *kvstore.Store

	c     *corpus.Corpus
	keys  []types.Key // sorted
	dels  [][]types.VersionID
	bytes int64
}

// TableSubchunk is the layout's KVS table.
const TableSubchunk = "bl_subchunk"

// Name implements Engine.
func (s *Subchunk) Name() string { return "SUBCHUNK" }

// Build implements Engine: one compressed group per key, members chained as
// binary deltas in origin order, each annotated with its deletion points so
// visibility resolves client-side.
func (s *Subchunk) Build(c *corpus.Corpus) error {
	s.c = c
	s.dels = collectDeletePoints(c)
	s.keys = append([]types.Key(nil), c.Keys()...)
	sort.Slice(s.keys, func(i, j int) bool { return s.keys[i] < s.keys[j] })
	for _, k := range s.keys {
		ids := c.KeyRecords(k)
		buf, err := s.encodeGroup(ids)
		if err != nil {
			return err
		}
		if err := s.KV.Put(context.Background(), TableSubchunk, string(k), buf); err != nil {
			return err
		}
		s.bytes += int64(len(buf))
	}
	return nil
}

// encodeGroup packs one key's records: the chunk item encoding (first record
// raw, later ones delta-chained) plus per-record deletion annotations.
func (s *Subchunk) encodeGroup(ids []uint32) ([]byte, error) {
	parents := make([]int32, len(ids))
	for i := range parents {
		if i == 0 {
			parents[i] = -1
		} else {
			parents[i] = int32(i - 1) // chain in origin order
		}
	}
	buf, err := chunk.EncodeItem(s.c, ids, parents)
	if err != nil {
		return nil, err
	}
	// Deletion annotations, aligned with members.
	for _, id := range ids {
		buf = codec.PutUvarint(buf, uint64(len(s.dels[id])))
		for _, d := range s.dels[id] {
			buf = codec.PutUvarint(buf, uint64(d))
		}
	}
	return buf, nil
}

// decodeGroup reverses encodeGroup: the members chunk.EncodeItem framed — the
// first raw, each later one raw or a bdiff of an earlier one — then their
// deletion annotations.
func decodeGroup(buf []byte) ([]types.Record, [][]types.VersionID, error) {
	n, rest, err := codec.Uvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	// A member takes four bytes at least (key length, version, parent, body
	// length), so the count cannot size an allocation the input does not pay for.
	if n > uint64(len(rest))/4 {
		return nil, nil, fmt.Errorf("%w: group counts %d members in %d bytes", types.ErrCorrupt, n, len(rest))
	}
	recs := make([]types.Record, 0, n)
	for i := uint64(0); i < n; i++ {
		var ck types.CompositeKey
		if ck, rest, err = codec.CompositeKey(rest); err != nil {
			return nil, nil, err
		}
		var p int64
		if p, rest, err = codec.Varint(rest); err != nil {
			return nil, nil, err
		}
		var body []byte
		if body, rest, err = codec.Bytes(rest); err != nil {
			return nil, nil, err
		}
		var value []byte
		switch {
		case p == -1 || p == -2:
			value = bytes.Clone(body)
		case p >= 0 && int(p) < len(recs):
			if value, err = bdiff.Apply(nil, recs[p].Value, body); err != nil {
				return nil, nil, err
			}
		default:
			return nil, nil, fmt.Errorf("%w: group member %d references parent %d", types.ErrCorrupt, i, p)
		}
		recs = append(recs, types.Record{CK: ck, Value: value})
	}
	dels := make([][]types.VersionID, len(recs))
	for i := range dels {
		var n uint64
		n, rest, err = codec.Uvarint(rest)
		if err != nil {
			return nil, nil, err
		}
		for j := uint64(0); j < n; j++ {
			var d uint64
			d, rest, err = codec.Uvarint(rest)
			if err != nil {
				return nil, nil, err
			}
			dels[i] = append(dels[i], types.VersionID(d))
		}
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%w: trailing group bytes", types.ErrCorrupt)
	}
	return recs, dels, nil
}

// fetchGroups multigets key groups and resolves the record visible at v for
// each (nil if none).
func (s *Subchunk) fetchGroups(keys []types.Key, v types.VersionID, stats *Stats) ([]*types.Record, error) {
	kv := make([]string, len(keys))
	for i, k := range keys {
		kv[i] = string(k)
	}
	res, err := s.KV.MultiGet(context.Background(), TableSubchunk, kv)
	if err != nil {
		return nil, err
	}
	stats.Span += len(keys)
	stats.Requests += res.Requests
	stats.BytesRead += res.BytesRead
	out := make([]*types.Record, len(keys))
	for i, val := range res.Values {
		if val == nil {
			continue
		}
		recs, dels, err := decodeGroup(val)
		if err != nil {
			return nil, err
		}
		found := false
		for j := range recs {
			if visibleAt(s.c, recs[j].CK.Version, dels[j], v) {
				r := recs[j]
				out[i] = &r
				found = true
				break
			}
		}
		if !found {
			stats.WastedChunks++
		}
	}
	return out, nil
}

// GetVersion implements Engine: every key group is fetched.
func (s *Subchunk) GetVersion(v types.VersionID) ([]types.Record, Stats, error) {
	var stats Stats
	if int(v) >= s.c.NumVersions() {
		return nil, stats, &types.VersionUnknownError{Version: v}
	}
	resolved, err := s.fetchGroups(s.keys, v, &stats)
	if err != nil {
		return nil, stats, err
	}
	var out []types.Record
	for _, r := range resolved {
		if r != nil {
			out = append(out, *r)
		}
	}
	types.SortRecords(out)
	stats.Records = len(out)
	return out, stats, nil
}

// GetRecord implements Engine: a single group fetch (the layout's strength).
func (s *Subchunk) GetRecord(key types.Key, v types.VersionID) (types.Record, Stats, error) {
	var stats Stats
	if int(v) >= s.c.NumVersions() {
		return types.Record{}, stats, &types.VersionUnknownError{Version: v}
	}
	resolved, err := s.fetchGroups([]types.Key{key}, v, &stats)
	if err != nil {
		return types.Record{}, stats, err
	}
	if resolved[0] == nil {
		return types.Record{}, stats, &types.KeyNotFoundError{Key: key, Version: v}
	}
	stats.Records = 1
	return *resolved[0], stats, nil
}

// GetRange implements Engine: fetch the groups of keys in range.
func (s *Subchunk) GetRange(lo, hi types.Key, v types.VersionID) ([]types.Record, Stats, error) {
	var stats Stats
	if int(v) >= s.c.NumVersions() {
		return nil, stats, &types.VersionUnknownError{Version: v}
	}
	i := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= lo })
	j := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= hi })
	resolved, err := s.fetchGroups(s.keys[i:j], v, &stats)
	if err != nil {
		return nil, stats, err
	}
	var out []types.Record
	for _, r := range resolved {
		if r != nil {
			out = append(out, *r)
		}
	}
	types.SortRecords(out)
	stats.Records = len(out)
	return out, stats, nil
}

// GetHistory implements Engine: one fetch returns everything.
func (s *Subchunk) GetHistory(key types.Key) ([]types.Record, Stats, error) {
	var stats Stats
	val, err := s.KV.Get(context.Background(), TableSubchunk, string(key))
	if err != nil {
		return nil, stats, &types.KeyNotFoundError{Key: key, Version: types.InvalidVersion}
	}
	stats.Span = 1
	stats.Requests = 1
	stats.BytesRead = int64(len(val))
	recs, _, err := decodeGroup(val)
	if err != nil {
		return nil, stats, err
	}
	types.SortRecords(recs)
	stats.Records = len(recs)
	return recs, stats, nil
}

// StorageBytes implements Engine.
func (s *Subchunk) StorageBytes() int64 { return s.bytes }

// TotalVersionSpan implements Engine: every version touches every group.
func (s *Subchunk) TotalVersionSpan() int {
	return s.c.NumVersions() * len(s.keys)
}
