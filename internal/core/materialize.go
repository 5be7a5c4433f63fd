package core

import (
	"context"
	"fmt"

	"rstore/internal/chunk"
	"rstore/internal/codec"
	"rstore/internal/index"
	"rstore/internal/kvstore"
	"rstore/internal/subchunk"
	"rstore/internal/types"
)

// Materialize runs the configured partitioning algorithm offline over the
// entire corpus — sub-chunk construction (if k>1), chunking, chunk-map and
// projection construction — and persists everything to the KVS. It is the
// bulk-load path and doubles as the periodic full repartitioning that §4
// recommends combining with online batching.
func (s *Store) Materialize(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.mutable(); err != nil {
		return err
	}
	return s.materializeLocked(ctx)
}

func (s *Store) materializeLocked(ctx context.Context) error {
	if s.graph.NumVersions() == 0 {
		return nil
	}
	res, err := subchunk.Build(s.corpus, s.cfg.SubChunkK, s.cfg.ChunkCapacity)
	if err != nil {
		return fmt.Errorf("rstore: materialize: %w", err)
	}
	res.In.Slack = s.cfg.Slack

	assign, err := s.cfg.Partitioner.Partition(res.In)
	if err != nil {
		return fmt.Errorf("rstore: materialize: %s: %w", s.cfg.Partitioner.Name(), err)
	}

	proj := index.New()
	built, err := chunk.Build(s.corpus, res.In.Items, assign.Chunks, proj)
	if err != nil {
		return fmt.Errorf("rstore: materialize: %w", err)
	}
	for id := 0; id < s.corpus.NumRecords(); id++ {
		loc := built.Locs[id]
		if loc.Chunk != chunk.NoChunk {
			proj.AddKeyChunk(s.corpus.Record(uint32(id)).CK.Key, loc.Chunk)
		}
	}
	proj.Normalize()

	// A full repartition supersedes every previously written chunk and
	// index entry. Chunk ids restart at 0, but the new entries land under
	// the NEXT generation's keys (chunk.KVKey), so nothing is overwritten
	// in place: until the manifest — which records the generation — commits
	// below, the old manifest still pairs with the old generation's intact
	// entries, and a crash anywhere in between leaves only superseded- or
	// uncommitted-generation debris that Load garbage-collects. Stale
	// leftovers (the whole previous generation, plus index entries the new
	// projections did not rewrite) are deleted only after the commit point.
	staleChunks, err := s.tableKeys(ctx, TableChunks)
	if err != nil {
		return err
	}
	staleVIdx, err := s.tableKeys(ctx, index.TableVersionIndex)
	if err != nil {
		return err
	}
	staleKIdx, err := s.tableKeys(ctx, index.TableKeyIndex)
	if err != nil {
		return err
	}

	// Persist chunk entries (payload + map in one value) as one batched
	// write under the next generation's keys, then projections, then the
	// manifest (the commit point, which adopts the new generation).
	newGen := s.gen + 1
	entries := make([]kvstore.Entry, 0, len(built.Payloads))
	newChunkKeys := make(map[string]bool, len(built.Payloads))
	for cid := range built.Payloads {
		key := chunk.KVKey(newGen, chunk.ID(cid))
		newChunkKeys[key] = true
		entries = append(entries, kvstore.Entry{
			Key:   key,
			Value: encodeChunkEntry(built.Payloads[cid], built.Maps[cid]),
		})
	}
	if err := s.kv.BatchPut(ctx, TableChunks, entries); err != nil {
		return err
	}
	if err := proj.Save(ctx, s.kv); err != nil {
		return err
	}

	flushed := s.pending
	s.locs = built.Locs
	s.maps = built.Maps
	s.proj = proj
	s.numChunks = uint32(len(built.Payloads))
	s.gen = newGen
	s.pending = nil
	s.pendingSet = make(map[types.VersionID]bool)
	if err := s.saveManifest(ctx); err != nil {
		return err
	}

	// Cleanup after the commit point: superseded chunk/index entries and
	// the drained write store.
	vKeys, kKeys := proj.EntryKeys()
	if err := s.deleteStale(ctx, TableChunks, staleChunks, newChunkKeys); err != nil {
		return err
	}
	if err := s.deleteStale(ctx, index.TableVersionIndex, staleVIdx, stringSet(vKeys)); err != nil {
		return err
	}
	if err := s.deleteStale(ctx, index.TableKeyIndex, staleKIdx, stringSet(kKeys)); err != nil {
		return err
	}
	for _, v := range flushed {
		if err := s.kv.Delete(ctx, TableDeltaStore, deltaKey(v)); err != nil {
			return err
		}
	}
	return nil
}

// tableKeys lists every key of a KVS table.
func (s *Store) tableKeys(ctx context.Context, table string) ([]string, error) {
	var keys []string
	if err := s.kv.Scan(ctx, table, func(k string, _ []byte) bool {
		keys = append(keys, k)
		return true
	}); err != nil {
		return nil, err
	}
	return keys, nil
}

// deleteStale removes the keys of a table that the new generation did not
// overwrite.
func (s *Store) deleteStale(ctx context.Context, table string, old []string, live map[string]bool) error {
	for _, k := range old {
		if live[k] {
			continue
		}
		if err := s.kv.Delete(ctx, table, k); err != nil {
			return err
		}
	}
	return nil
}

func stringSet(keys []string) map[string]bool {
	out := make(map[string]bool, len(keys))
	for _, k := range keys {
		out[k] = true
	}
	return out
}

// encodeChunkEntry packs a chunk payload and its chunk map into the single
// KVS value stored under the chunk id.
func encodeChunkEntry(payload []byte, m *chunk.Map) []byte {
	var buf []byte
	buf = codec.PutBytes(buf, payload)
	return m.AppendBinary(buf)
}

// decodeChunkEntry splits a stored chunk entry.
func decodeChunkEntry(entry []byte) (payload []byte, m *chunk.Map, err error) {
	payload, rest, err := codec.Bytes(entry)
	if err != nil {
		return nil, nil, err
	}
	m, err = chunk.DecodeMap(rest)
	if err != nil {
		return nil, nil, err
	}
	return payload, m, nil
}
