package baseline

import (
	"context"

	"sort"

	"rstore/internal/corpus"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// Single is the single-address-space layout (§2.2): every record is stored
// directly under its composite key. Ingest is trivial and storage is
// deduplicated, but no compression is possible and every retrieval needs the
// version-record index plus one request per record (the "too many queries"
// problem in its purest form).
type Single struct {
	KV *kvstore.Store

	c     *corpus.Corpus
	dels  [][]types.VersionID
	keys  []types.Key
	bytes int64
}

// TableSingle is the layout's KVS table.
const TableSingle = "bl_single"

// Name implements Engine.
func (s *Single) Name() string { return "SINGLE" }

// Build implements Engine.
func (s *Single) Build(c *corpus.Corpus) error {
	s.c = c
	s.dels = collectDeletePoints(c)
	s.keys = append([]types.Key(nil), c.Keys()...)
	sort.Slice(s.keys, func(i, j int) bool { return s.keys[i] < s.keys[j] })
	for id := 0; id < c.NumRecords(); id++ {
		r := c.Record(uint32(id))
		if err := s.KV.Put(context.Background(), TableSingle, ckKey(r.CK), r.Value); err != nil {
			return err
		}
		s.bytes += int64(len(r.Value))
	}
	return nil
}

func ckKey(ck types.CompositeKey) string {
	return string(ck.Key) + "@" + itoa(uint32(ck.Version))
}

func itoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var buf [10]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// resolveVersion consults the in-memory version-record index (the extra
// index this layout cannot avoid, §2.2) for version v's composite keys.
func (s *Single) resolveVersion(v types.VersionID) ([]types.CompositeKey, error) {
	members, err := s.c.Members(v)
	if err != nil {
		return nil, err
	}
	out := make([]types.CompositeKey, len(members))
	for i, id := range members {
		out[i] = s.c.Record(id).CK
	}
	return out, nil
}

// fetch multigets records by composite key.
func (s *Single) fetch(cks []types.CompositeKey, stats *Stats) ([]types.Record, error) {
	keys := make([]string, len(cks))
	for i, ck := range cks {
		keys[i] = ckKey(ck)
	}
	res, err := s.KV.MultiGet(context.Background(), TableSingle, keys)
	if err != nil {
		return nil, err
	}
	stats.Span += len(cks)
	stats.Requests += res.Requests
	stats.BytesRead += res.BytesRead
	out := make([]types.Record, 0, len(cks))
	for i, val := range res.Values {
		if val == nil {
			continue
		}
		out = append(out, types.Record{CK: cks[i], Value: val})
	}
	return out, nil
}

// GetVersion implements Engine: m_v point requests.
func (s *Single) GetVersion(v types.VersionID) ([]types.Record, Stats, error) {
	var stats Stats
	if int(v) >= s.c.NumVersions() {
		return nil, stats, &types.VersionUnknownError{Version: v}
	}
	cks, err := s.resolveVersion(v)
	if err != nil {
		return nil, stats, err
	}
	recs, err := s.fetch(cks, &stats)
	if err != nil {
		return nil, stats, err
	}
	types.SortRecords(recs)
	stats.Records = len(recs)
	return recs, stats, nil
}

// GetRecord implements Engine: index resolution, then exactly one request.
func (s *Single) GetRecord(key types.Key, v types.VersionID) (types.Record, Stats, error) {
	var stats Stats
	if int(v) >= s.c.NumVersions() {
		return types.Record{}, stats, &types.VersionUnknownError{Version: v}
	}
	for _, id := range s.c.KeyRecords(key) {
		r := s.c.Record(id)
		if visibleAt(s.c, r.CK.Version, s.dels[id], v) {
			recs, err := s.fetch([]types.CompositeKey{r.CK}, &stats)
			if err != nil {
				return types.Record{}, stats, err
			}
			if len(recs) == 1 {
				stats.Records = 1
				return recs[0], stats, nil
			}
			break
		}
	}
	return types.Record{}, stats, &types.KeyNotFoundError{Key: key, Version: v}
}

// GetRange implements Engine.
func (s *Single) GetRange(lo, hi types.Key, v types.VersionID) ([]types.Record, Stats, error) {
	var stats Stats
	if int(v) >= s.c.NumVersions() {
		return nil, stats, &types.VersionUnknownError{Version: v}
	}
	cks, err := s.resolveVersion(v)
	if err != nil {
		return nil, stats, err
	}
	var want []types.CompositeKey
	for _, ck := range cks {
		if ck.Key >= lo && ck.Key < hi {
			want = append(want, ck)
		}
	}
	recs, err := s.fetch(want, &stats)
	if err != nil {
		return nil, stats, err
	}
	types.SortRecords(recs)
	stats.Records = len(recs)
	return recs, stats, nil
}

// GetHistory implements Engine: one request per record of the key.
func (s *Single) GetHistory(key types.Key) ([]types.Record, Stats, error) {
	var stats Stats
	ids := s.c.KeyRecords(key)
	if len(ids) == 0 {
		return nil, stats, &types.KeyNotFoundError{Key: key, Version: types.InvalidVersion}
	}
	cks := make([]types.CompositeKey, len(ids))
	for i, id := range ids {
		cks[i] = s.c.Record(id).CK
	}
	recs, err := s.fetch(cks, &stats)
	if err != nil {
		return nil, stats, err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].CK.Version < recs[j].CK.Version })
	stats.Records = len(recs)
	return recs, stats, nil
}

// StorageBytes implements Engine.
func (s *Single) StorageBytes() int64 { return s.bytes }

// TotalVersionSpan implements Engine: Σ_v m_v.
func (s *Single) TotalVersionSpan() int {
	total := 0
	for v := 0; v < s.c.NumVersions(); v++ {
		members, err := s.c.Members(types.VersionID(v))
		if err != nil {
			continue
		}
		total += len(members)
	}
	return total
}
