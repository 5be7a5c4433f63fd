package baseline

import (
	"context"

	"fmt"

	"rstore/internal/codec"
	"rstore/internal/corpus"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// Delta is the delta-chain layout (§2.2): each version stores only its
// difference from the parent, split into capacity-sized pieces. Version
// reconstruction walks the whole root→v chain; key-centric queries are
// "abysmal" (the paper's word) because deltas of every ancestor must be
// inspected.
type Delta struct {
	KV *kvstore.Store
	// Capacity is the piece size in bytes (comparable to RStore's chunk
	// size so spans compare fairly).
	Capacity int

	c      *corpus.Corpus
	pieces []int // per version: number of stored pieces
	bytes  int64
}

// TableDelta is the layout's KVS table.
const TableDelta = "bl_delta"

// Name implements Engine.
func (d *Delta) Name() string { return "DELTA" }

// Build implements Engine: serializes every version's delta and splits it
// into pieces at record boundaries.
func (d *Delta) Build(c *corpus.Corpus) error {
	if d.Capacity <= 0 {
		d.Capacity = 1 << 20
	}
	d.c = c
	n := c.NumVersions()
	d.pieces = make([]int, n)
	for v := 0; v < n; v++ {
		vv := types.VersionID(v)
		delta := &types.Delta{}
		for _, id := range c.Adds(vv) {
			delta.Adds = append(delta.Adds, c.Record(id))
		}
		for _, id := range c.Dels(vv) {
			delta.Dels = append(delta.Dels, c.Record(id).CK)
		}
		np, err := d.putPieces(vv, delta)
		if err != nil {
			return err
		}
		d.pieces[v] = np
	}
	return nil
}

// putPieces splits one delta into capacity-bounded sub-deltas at record
// granularity.
func (d *Delta) putPieces(v types.VersionID, delta *types.Delta) (int, error) {
	np := 0
	cur := &types.Delta{}
	curBytes := 0
	flush := func() error {
		if len(cur.Adds) == 0 && len(cur.Dels) == 0 {
			return nil
		}
		buf := codec.PutDelta(nil, cur)
		if err := d.KV.Put(context.Background(), TableDelta, pieceKey(v, np), buf); err != nil {
			return err
		}
		d.bytes += int64(len(buf))
		np++
		cur = &types.Delta{}
		curBytes = 0
		return nil
	}
	for _, r := range delta.Adds {
		if curBytes > 0 && curBytes+r.Size() > d.Capacity {
			if err := flush(); err != nil {
				return 0, err
			}
		}
		cur.Adds = append(cur.Adds, r)
		curBytes += r.Size()
	}
	for _, ck := range delta.Dels {
		if curBytes > 0 && curBytes+types.RecordOverhead > d.Capacity {
			if err := flush(); err != nil {
				return 0, err
			}
		}
		cur.Dels = append(cur.Dels, ck)
		curBytes += types.RecordOverhead
	}
	if err := flush(); err != nil {
		return 0, err
	}
	if np == 0 {
		// Empty deltas (possible for no-op versions) still need one piece
		// so reconstruction can verify presence.
		buf := codec.PutDelta(nil, &types.Delta{})
		if err := d.KV.Put(context.Background(), TableDelta, pieceKey(v, 0), buf); err != nil {
			return 0, err
		}
		d.bytes += int64(len(buf))
		np = 1
	}
	return np, nil
}

func pieceKey(v types.VersionID, i int) string {
	return fmt.Sprintf("v%08x_p%04d", uint32(v), i)
}

// fetchPath multigets every piece of every version on the root→v path and
// returns the deltas in application order.
func (d *Delta) fetchPath(path []types.VersionID, stats *Stats) ([]*types.Delta, error) {
	var keys []string
	for _, u := range path {
		for i := 0; i < d.pieces[u]; i++ {
			keys = append(keys, pieceKey(u, i))
		}
	}
	res, err := d.KV.MultiGet(context.Background(), TableDelta, keys)
	if err != nil {
		return nil, err
	}
	if len(res.Missing) > 0 {
		return nil, fmt.Errorf("%w: delta piece %s", types.ErrCorrupt, keys[res.Missing[0]])
	}
	stats.Span += len(keys)
	stats.Requests += res.Requests
	stats.BytesRead += res.BytesRead
	out := make([]*types.Delta, len(res.Values))
	for i, val := range res.Values {
		dd, err := codec.DecodeDelta(val)
		if err != nil {
			return nil, err
		}
		out[i] = dd
	}
	return out, nil
}

// GetVersion implements Engine: reconstruct by applying the chain.
func (d *Delta) GetVersion(v types.VersionID) ([]types.Record, Stats, error) {
	var stats Stats
	if int(v) >= d.c.NumVersions() {
		return nil, stats, &types.VersionUnknownError{Version: v}
	}
	deltas, err := d.fetchPath(d.c.Graph().PathFromRoot(v), &stats)
	if err != nil {
		return nil, stats, err
	}
	recs := make(map[types.CompositeKey]types.Record)
	for _, dd := range deltas {
		for _, ck := range dd.Dels {
			delete(recs, ck)
		}
		for _, r := range dd.Adds {
			recs[r.CK] = r
		}
	}
	out := make([]types.Record, 0, len(recs))
	for _, r := range recs {
		out = append(out, r)
	}
	types.SortRecords(out)
	stats.Records = len(out)
	return out, stats, nil
}

// GetRecord implements Engine: walk v→root, stopping at the first delta
// that adds or deletes the key (expected half the chain, Table 1).
func (d *Delta) GetRecord(key types.Key, v types.VersionID) (types.Record, Stats, error) {
	var stats Stats
	if int(v) >= d.c.NumVersions() {
		return types.Record{}, stats, &types.VersionUnknownError{Version: v}
	}
	g := d.c.Graph()
	cur := v
	for {
		deltas, err := d.fetchPath([]types.VersionID{cur}, &stats)
		if err != nil {
			return types.Record{}, stats, err
		}
		for _, dd := range deltas {
			for _, r := range dd.Adds {
				if r.CK.Key == key {
					stats.Records = 1
					return r, stats, nil
				}
			}
			for _, ck := range dd.Dels {
				if ck.Key == key {
					return types.Record{}, stats, &types.KeyNotFoundError{Key: key, Version: v}
				}
			}
		}
		if cur == 0 {
			return types.Record{}, stats, &types.KeyNotFoundError{Key: key, Version: v}
		}
		cur = g.Parent(cur)
	}
}

// GetRange implements Engine: worst case per the paper — reconstruct the
// full version, then filter.
func (d *Delta) GetRange(lo, hi types.Key, v types.VersionID) ([]types.Record, Stats, error) {
	recs, stats, err := d.GetVersion(v)
	if err != nil {
		return nil, stats, err
	}
	out := recs[:0]
	for _, r := range recs {
		if r.CK.Key >= lo && r.CK.Key < hi {
			out = append(out, r)
		}
	}
	stats.Records = len(out)
	return out, stats, nil
}

// GetHistory implements Engine: every version's deltas must be scanned —
// the paper deems this impractical, and the cost reflects that.
func (d *Delta) GetHistory(key types.Key) ([]types.Record, Stats, error) {
	var stats Stats
	all := make([]types.VersionID, d.c.NumVersions())
	for v := range all {
		all[v] = types.VersionID(v)
	}
	deltas, err := d.fetchPath(all, &stats)
	if err != nil {
		return nil, stats, err
	}
	var out []types.Record
	for _, dd := range deltas {
		for _, r := range dd.Adds {
			if r.CK.Key == key {
				out = append(out, r)
			}
		}
	}
	if len(out) == 0 {
		return nil, stats, &types.KeyNotFoundError{Key: key, Version: types.InvalidVersion}
	}
	types.SortRecords(out)
	stats.Records = len(out)
	return out, stats, nil
}

// StorageBytes implements Engine.
func (d *Delta) StorageBytes() int64 { return d.bytes }

// TotalVersionSpan implements Engine: Σ_v Σ_{u on path(v)} pieces(u).
func (d *Delta) TotalVersionSpan() int {
	g := d.c.Graph()
	// pathPieces[v] = pieces on root→v path, computed top-down.
	total := 0
	pathPieces := make([]int, d.c.NumVersions())
	for _, v := range g.PreOrder() {
		p := d.pieces[v]
		if v != 0 {
			p += pathPieces[g.Parent(v)]
		}
		pathPieces[v] = p
		total += p
	}
	return total
}
