package core

import (
	"cmp"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"rstore/internal/chunk"
	"rstore/internal/corpus"
	"rstore/internal/kvstore"
	"rstore/internal/partition"
	"rstore/internal/subchunk"
	"rstore/internal/types"
)

// Materialize runs the configured partitioning algorithm offline over the
// entire corpus — sub-chunk construction (if k>1), chunking, chunk-map and
// projection construction — and persists the result to the KVS as the next
// placement generation. It is the bulk-load path and doubles as the periodic
// full repartitioning that §4 recommends combining with online batching.
func (s *Store) Materialize(ctx context.Context) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.mutable(); err != nil {
		return err
	}
	return s.materialize(ctx, placement{corpus: s.corpus})
}

// materialize repartitions p.corpus onto a fresh layout. Callers hold s.wmu.
// Its sorted keys are the ones the items were ranked by: the corpus's keys
// are sorted once.
func (s *Store) materialize(ctx context.Context, p placement) error {
	if p.corpus.NumVersions() == 0 {
		return nil
	}
	res, err := subchunk.Build(p.corpus, s.cfg.SubChunkK, s.cfg.ChunkCapacity)
	if err != nil {
		return fmt.Errorf("rstore: materialize: %w", err)
	}
	p.keys = res.Keys
	// A full repartition supersedes every previously written chunk and
	// placement record: a fresh layout, ids and record log restarting at 0,
	// under the next generation (see publish), one copy of each record.
	p.op, p.gen, p.layout = "materialize", s.gen+1, chunk.NewLayout(p.corpus)
	return s.place(ctx, []*partition.Input{res.In}, p)
}

// placement is one placement run on its way to the KVS and into memory: a
// corpus and its sorted keys (the store's, by a flush; by a repartition or a
// bulk load, those materialize ranked the items by), the layout it grows (the
// live one, by a flush; a fresh one, by a repartition, which holds each
// record once) under generation gen with the versions [first,
// corpus.NumVersions()), and the chunks place coded and wrote, in id order,
// without their values.
type placement struct {
	op     string
	corpus *corpus.Corpus
	keys   []types.Key
	layout *chunk.Layout
	gen    uint32
	first  types.VersionID
	coded  []*chunk.Coded
}

// addChunk adds one of p's coded chunks to p.layout. On a fresh layout
// (!live), a repartition's, each record has one copy.
func (p *placement) addChunk(c *chunk.Coded, live bool) error {
	cid, err := p.layout.AddChunk(c)
	if err != nil || live {
		return err
	}
	return p.layout.CheckOneCopy(cid)
}

// bind adds the chunks p holds to p.layout — a flush's, which place keeps
// until the install — and gives its versions their slot bitmaps in id order,
// parents first.
func (p *placement) bind(live bool) error {
	for _, c := range p.coded {
		if err := p.addChunk(c, live); err != nil {
			return err
		}
	}
	for v := p.first; int(v) < p.corpus.NumVersions(); v++ {
		if err := p.layout.PlaceVersion(v); err != nil {
			return err
		}
	}
	return nil
}

// place is the one placement mechanism (§3.1 offline, §4 online): partition
// each instance, code and write the chunks of their assignments in instance
// order, and publish. A flush passes its batch's instances (one, or the open
// and the closed one) and the live layout; a repartition the whole-corpus
// instance and a fresh layout under the next generation. Callers hold s.wmu
// alone: place changes no memory a plan reads.
//
// Chunks are written in three stages: the partitioner's assignment, then
// every chunk coded on a pool of goroutines (chunk.Code, ordered), then — on
// this goroutine, in chunk-id order — its segments handed to the chunk writer,
// which has two groups in flight, under the id the layout gives the chunk:
// p.layout.NumChunks()+i for the i-th, as only s.wmu holders add chunks. On a
// fresh layout, which no plan reads, the chunk is added to it there too, as it
// arrives, so only its versions' slot bitmaps are left for publish to bind
// beside the last groups' writes; a flush's chunks wait for the install. Ids,
// keys and bytes are what coding the chunks one by one gives.
func (s *Store) place(ctx context.Context, ins []*partition.Input, p placement) (err error) {
	type job struct {
		items []chunk.Item
		idxs  []uint32
	}
	var jobs []job
	for _, in := range ins {
		assign, err := s.cfg.Partitioner.Partition(in)
		if err != nil {
			return fmt.Errorf("rstore: %s: %s: %w", p.op, s.cfg.Partitioner.Name(), err)
		}
		for _, idxs := range assign.Chunks {
			jobs = append(jobs, job{in.Items, idxs})
		}
	}

	// From the first chunk write on, the KVS (and, from publish's install,
	// memory) runs ahead of the persisted root until publish has written it:
	// an error anywhere in between poisons the store.
	defer func() {
		if err != nil {
			err = s.poison(fmt.Errorf("rstore: %s: %w", p.op, err))
		}
	}()
	w := chunkWriter{kv: s.kv}
	defer w.wait() // no chunk write outlives place, however it returns
	live, first := p.layout == s.layout, p.layout.NumChunks()
	err = ordered(len(jobs), func(i int) (*chunk.Coded, error) {
		return chunk.Code(jobs[i].items, jobs[i].idxs)
	}, func(i int, coded *chunk.Coded) error {
		// A chunk's segments travel in one group; the ring may still spread
		// them over several nodes.
		cid := chunk.ID(first + i)
		for seg, value := range coded.Values {
			w.group = append(w.group, kvstore.Entry{Key: chunk.SegmentKey(p.gen, cid, uint32(seg)), Value: value})
			w.size += len(value)
		}
		coded.Values = nil // the writer has them; the layout needs only the slots
		if live {
			p.coded = append(p.coded, coded)
		} else if err := p.addChunk(coded, live); err != nil {
			return err
		}
		if w.size >= chunkGroupBytes {
			return w.send(ctx)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := w.send(ctx); err != nil {
		return err
	}
	return s.publish(ctx, p, &w)
}

// chunkGroupBytes is the payload a chunk-write group is sent at: 4 MiB of
// plain bytes (chosen from a 2/4/8/16 MiB measurement of BulkLoad on the
// benchmark's stack when a segment stored its values raw; CHANGES.md, PR 20),
// which segments now store in about half. Counted in stored bytes, a group of
// 4 MiB had grown to 7.5 chunks, and a corpus smaller than that was written in
// one piece after all of it was coded, none of the write beside the coding
// (CHANGES.md, PR 27).
const chunkGroupBytes = 2 << 20

// chunkWriter writes a placement run's chunk segments to the KVS as a bounded
// pipeline: place collects them into a group and sends it once it holds
// chunkGroupBytes, as one replicated BatchPut on a goroutine of its own, while
// it builds the next — chunkGroupsInFlight groups in flight, one being built,
// so a run holds three groups of payloads however large the corpus and no
// request grows with it. A failed group fails the call that waits for it and
// every later one.
type chunkWriter struct {
	kv       *kvstore.Store
	group    []kvstore.Entry // being built
	size     int             // its payload bytes
	inFlight []chan error    // the groups in flight, oldest first: each says how its write ended
	wg       sync.WaitGroup  // their goroutines
	err      error           // the first failure waited for
}

// chunkGroupsInFlight is how many groups a chunkWriter writes at once. With
// one, the consumer waited on each group's acknowledgement before it could
// hand the next one over, and the coders, a window ahead, stalled behind it;
// with two, one group is on the wire while the other is acknowledged.
const chunkGroupsInFlight = 2

// send starts writing the group being built, once fewer than
// chunkGroupsInFlight groups are in flight, unless a group has failed or ctx
// is done.
func (w *chunkWriter) send(ctx context.Context) error {
	if len(w.inFlight) == chunkGroupsInFlight {
		w.waitOldest()
	}
	if w.err = cmp.Or(w.err, ctx.Err()); w.err != nil || len(w.group) == 0 {
		return w.err
	}
	group, done := w.group, make(chan error, 1)
	w.group, w.size = nil, 0
	w.inFlight = append(w.inFlight, done)
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		done <- w.kv.BatchPut(ctx, TableChunks, group)
	}()
	return nil
}

// waitOldest waits for the oldest group in flight.
func (w *chunkWriter) waitOldest() {
	w.err = cmp.Or(w.err, <-w.inFlight[0])
	w.inFlight = w.inFlight[1:]
}

// wait returns once no group is in flight, with the first failure so far.
func (w *chunkWriter) wait() error {
	for len(w.inFlight) > 0 {
		w.waitOldest()
	}
	w.wg.Wait()
	return w.err
}

// publish persists a placement run in the one crash order Open repairs:
// chunk segments (w's groups, each one batched write — grouped per replica
// node, one durability sync per node — and every one acknowledged before
// anything else is written) → placement record → root, the commit point →
// cleanup (a superseded generation, then the write-store drain: one batched
// delete per table, deleteKeys). A crash before the root — with any subset of
// the groups written, two being in flight at once, as much as after the last —
// leaves chunks and maybe a record the root does
// not count — past its counts, or under a generation it does not name — which
// Open skips and deletes (the versions are still pending and re-flush under
// the same ids); a crash after it leaves only a stale generation and stale
// delta entries that Open garbage-collects. A batch is split per node, so a
// crash can also leave some segments of a chunk without the others — the chunk
// is past the root's count all the same, and Open deletes what landed — or a
// drain that reached one replica of an entry and not the other, which the
// tombstone's timestamp settles on the next read. A repartition's entries land
// under the NEXT generation's keys, so nothing is overwritten in place: until
// the root — which names the generation — commits, the old root still pairs
// with the old generation's intact entries.
//
// The store installs p in one step under s.mu once its chunks are durable:
// corpus, keys, layout, generation, counts and pin. A fresh layout, which no
// plan reads, took its chunks as place coded them, and its versions get their
// slot bitmaps here, beside the last groups' writes; the live one binds inside
// the install — O(batch) memory work — so a plan sees all of the run or none
// of it, and waits for none of its I/O. A superseded generation that a
// query stream still reads is deleted when the last such stream ends (genPin);
// a crash before that leaves it to Open.
func (s *Store) publish(ctx context.Context, p placement, w *chunkWriter) error {
	var err error
	live := p.layout == s.layout
	if !live {
		err = p.bind(live)
	}
	if err = cmp.Or(err, w.wait()); err != nil {
		return err
	}
	drained := make([]string, 0, s.numPending())
	for v := s.placed; v < s.graph.NumVersions(); v++ {
		drained = append(drained, deltaKey(types.VersionID(v)))
	}
	idx := s.numPlacements // a flush appends to the log, a new generation starts one
	if p.gen != s.gen {
		idx = 0
	}
	oldGen, oldPin, oldLayout, oldPlacements := s.gen, s.pin, s.layout, s.numPlacements
	s.locked(func() {
		if live {
			if err = p.bind(live); err != nil {
				return
			}
		}
		s.graph, s.corpus, s.sortedKeys = p.corpus.Graph(), p.corpus, p.keys
		s.gen, s.layout, s.numPlacements = p.gen, p.layout, idx+1
		if p.gen != oldGen {
			s.pin = newGenPin()
		}
		s.placed = s.graph.NumVersions()
	})
	if err != nil {
		return err
	}
	if err := s.savePlacement(ctx, p.gen, idx, p.first, p.layout.TakeDelta()); err != nil {
		return err
	}
	if err := s.saveRoot(ctx, s.branches); err != nil {
		return err // the root still names oldGen: the store never lets go of it
	}

	// The superseded generation's keys are computable, no scan; Open's
	// other-generation sweep is the backstop for anything older.
	if p.gen != oldGen {
		var segments []string
		for cid := 0; cid < oldLayout.NumChunks(); cid++ {
			for seg := range oldLayout.Segments(chunk.ID(cid)) {
				segments = append(segments, chunk.SegmentKey(oldGen, chunk.ID(cid), uint32(seg)))
			}
		}
		records := make([]string, oldPlacements)
		for idx := range records {
			records[idx] = placementKey(oldGen, uint32(idx))
		}
		oldPin.sweep = func(ctx context.Context) error {
			if err := deleteKeys(ctx, s.kv, TableChunks, segments); err != nil {
				return err
			}
			return deleteKeys(ctx, s.kv, TablePlacement, records)
		}
		if err := oldPin.release(ctx); err != nil {
			return err
		}
	}
	return deleteKeys(ctx, s.kv, TableDeltaStore, drained)
}

// genPin counts the holders of a placement generation's KVS keys: the store,
// while the generation is live, and every query stream resolved under it —
// leveldb's ref-counted Version, one layer up. Segments are written once and
// never changed, so what a stream reads can only go away with its whole
// generation, and whoever lets go last deletes that: publish, at once, when
// no stream reads the generation it supersedes; otherwise the last stream to
// end.
type genPin struct {
	holders atomic.Int32
	sweep   func(ctx context.Context) error // set by publish before the store lets go
}

// newGenPin returns the pin of a live generation, the store's hold on it.
func newGenPin() *genPin {
	g := &genPin{}
	g.holders.Store(1)
	return g
}

// release lets go of one hold; the last one deletes the generation.
func (g *genPin) release(ctx context.Context) error {
	if g.holders.Add(-1) > 0 {
		return nil
	}
	return g.sweep(ctx)
}

// deleteGroupKeys is how many keys a cleanup delete carries at most: like a
// chunk-write group, no request grows with the corpus.
const deleteGroupKeys = 1024

// deleteKeys removes keys from table, one replicated batch per
// deleteGroupKeys of them.
func deleteKeys(ctx context.Context, kv *kvstore.Store, table string, keys []string) error {
	for len(keys) > 0 {
		n := min(len(keys), deleteGroupKeys)
		if err := kv.BatchDelete(ctx, table, keys[:n]); err != nil {
			return err
		}
		keys = keys[n:]
	}
	return nil
}
