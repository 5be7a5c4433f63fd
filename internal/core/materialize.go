package core

import (
	"context"
	"fmt"

	"rstore/internal/chunk"
	"rstore/internal/index"
	"rstore/internal/kvstore"
	"rstore/internal/subchunk"
)

// Materialize runs the configured partitioning algorithm offline over the
// entire corpus — sub-chunk construction (if k>1), chunking, chunk-map and
// projection construction — and persists the result to the KVS as the next
// placement generation. It is the bulk-load path and doubles as the periodic
// full repartitioning that §4 recommends combining with online batching.
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
	// placement record. Chunk ids and the record log restart at 0, but the
	// new entries land under the NEXT generation's keys (chunk.KVKey,
	// placementKey), so nothing is overwritten in place: until the root —
	// which names the generation — commits below, the old root still pairs
	// with the old generation's intact entries, and a crash anywhere in
	// between leaves only superseded- or uncommitted-generation debris that
	// Load garbage-collects.
	oldGen, oldChunks, oldPlacements := s.gen, s.numChunks, s.numPlacements
	drain := s.pending()

	// Persist the next generation: chunk payloads as one batched write, one
	// placement record holding the whole state, then the root (the commit
	// point, which adopts the generation).
	payloads := make([]kvstore.Entry, len(built.Payloads))
	maps := make(map[chunk.ID]*chunk.Map, len(built.Maps))
	for cid, payload := range built.Payloads {
		payloads[cid] = kvstore.Entry{Key: chunk.KVKey(oldGen+1, chunk.ID(cid)), Value: payload}
		maps[chunk.ID(cid)] = built.Maps[cid]
	}
	if err := s.kv.BatchPut(ctx, TableChunks, payloads); err != nil {
		return err
	}
	s.locs = built.Locs
	s.maps = built.Maps
	s.proj = proj
	s.numChunks = uint32(len(built.Payloads))
	s.gen, s.numPlacements = oldGen+1, 0
	s.placed = s.graph.NumVersions()
	if err := s.savePlacement(ctx, 0, s.placed, maps); err != nil {
		return err
	}
	if err := s.saveRoot(ctx); err != nil {
		return err
	}

	// Cleanup after the commit point: the superseded generation — its keys
	// are computable, no scan — and the drained write store. Load's
	// other-generation sweep is the backstop for anything older.
	for cid := uint32(0); cid < oldChunks; cid++ {
		if err := s.kv.Delete(ctx, TableChunks, chunk.KVKey(oldGen, cid)); err != nil {
			return err
		}
	}
	for idx := uint32(0); idx < oldPlacements; idx++ {
		if err := s.kv.Delete(ctx, TablePlacement, placementKey(oldGen, idx)); err != nil {
			return err
		}
	}
	for _, v := range drain {
		if err := s.kv.Delete(ctx, TableDeltaStore, deltaKey(v)); err != nil {
			return err
		}
	}
	return nil
}
