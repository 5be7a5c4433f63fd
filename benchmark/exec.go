package main

import (
	"context"
	"strconv"

	"rstore/internal/client"
	"rstore/internal/core"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// readStats is what a read's stats trailer says about its retrieval.
type readStats struct {
	span, wasted int
	bytesRead    int64
}

// executor runs operations against one entry point of the stack. The
// clock runs around these calls, so they do only what a caller of that
// entry point must do to hold the whole answer; checking the answer is the
// caller's business, after the clock has stopped.
type executor interface {
	layer() string // root span layer of a traced call
	read(ctx context.Context, q *query) ([]types.Record, readStats, error)
	commit(ctx context.Context, parent types.VersionID, ch change) (types.VersionID, error)
	flush(ctx context.Context) error
}

// httpExec is the whole stack: internal/client over keep-alive HTTP.
type httpExec struct{ c *client.Client }

func (e httpExec) layer() string { return layerClient }

func (e httpExec) read(ctx context.Context, q *query) ([]types.Record, readStats, error) {
	ref := strconv.FormatUint(uint64(q.version), 10)
	var cur *client.Cursor
	var err error
	switch q.kind {
	case opVersion:
		cur, err = e.c.GetVersion(ctx, ref)
	case opRange:
		cur, err = e.c.GetRange(ctx, ref, q.lo, q.hi)
	case opHistory:
		cur, err = e.c.GetHistory(ctx, q.key)
	case opRecord:
		rec, st, err := e.c.GetRecord(ctx, ref, q.key)
		if err != nil {
			return nil, readStats{}, err
		}
		return []types.Record{rec}, readStats{st.Span, st.WastedChunks, st.BytesRead}, nil
	}
	if err != nil {
		return nil, readStats{}, err
	}
	// A stream that ends without its stats trailer comes back as an error.
	recs, st, err := cur.All()
	return recs, readStats{st.Span, st.WastedChunks, st.BytesRead}, err
}

func (e httpExec) commit(ctx context.Context, parent types.VersionID, ch change) (types.VersionID, error) {
	puts := make(map[string][]byte, len(ch.puts))
	for k, v := range ch.puts {
		puts[string(k)] = v
	}
	dels := make([]string, len(ch.deletes))
	for i, k := range ch.deletes {
		dels[i] = string(k)
	}
	p := int64(-1)
	if parent != types.InvalidVersion {
		p = int64(parent)
	}
	return e.c.Commit(ctx, p, puts, dels, "")
}

func (e httpExec) flush(ctx context.Context) error { return e.c.Flush(ctx) }

// coreExec calls core.Store directly: the replay that separates the server
// layer from what lies beneath it.
type coreExec struct{ st *core.Store }

func (e coreExec) layer() string { return layerCore }

func (e coreExec) read(ctx context.Context, q *query) ([]types.Record, readStats, error) {
	var cur *core.Cursor
	switch q.kind {
	case opVersion:
		cur = e.st.GetVersion(ctx, q.version)
	case opRange:
		cur = e.st.GetRange(ctx, core.KeyRange(q.lo, q.hi), q.version)
	case opHistory:
		cur = e.st.GetHistory(ctx, q.key)
	case opRecord:
		rec, st, err := e.st.GetRecord(ctx, q.key, q.version)
		if err != nil {
			return nil, readStats{}, err
		}
		return []types.Record{rec}, readStats{st.Span, st.WastedChunks, st.BytesRead}, nil
	}
	recs, st, err := cur.All()
	return recs, readStats{st.Span, st.WastedChunks, st.BytesRead}, err
}

func (e coreExec) commit(ctx context.Context, parent types.VersionID, ch change) (types.VersionID, error) {
	return e.st.Commit(ctx, parent, core.Change{Puts: ch.puts, Deletes: ch.deletes})
}

func (e coreExec) flush(ctx context.Context) error { return e.st.Flush(ctx) }

// replayTable is where the kvstore replay writes: values of the sizes an
// operation wrote, under the keys it wrote them, away from the store's own
// tables.
const replayTable = "benchmark_replay"

// replayKV reissues, straight on kvstore, the storage calls one operation
// made during the core replay: its reads as they were (the keys are
// deduplicated, since a replicated write reaches the decorators once per
// replica), its writes as one batch per table into replayTable. This is
// the replay that separates core from kvstore. Deletes are not replayed.
func replayKV(ctx context.Context, kv *kvstore.Store, calls []kvCall, scratch []byte) error {
	var reads, writes tableKeys
	for _, c := range calls {
		switch c.op {
		case "multiget", "get":
			reads.add(c)
		case "batchput", "put":
			writes.add(c)
		}
	}
	const fetchBatch = 8 // core.Config.QueryFetchBatch default
	for _, table := range reads.tables {
		for keys := reads.keys[table]; len(keys) > 0; {
			n := min(fetchBatch, len(keys))
			if _, err := kv.MultiGet(ctx, table, keys[:n]); err != nil {
				return err
			}
			keys = keys[n:]
		}
	}
	for _, table := range writes.tables {
		entries := make([]kvstore.Entry, len(writes.keys[table]))
		for i, k := range writes.keys[table] {
			entries[i] = kvstore.Entry{Key: table + "/" + k, Value: scratch[:min(writes.sizes[table][i], len(scratch))]}
		}
		if err := kv.BatchPut(ctx, replayTable, entries); err != nil {
			return err
		}
	}
	return nil
}

// tableKeys collects the distinct keys of captured calls per table, tables
// in first-use order.
type tableKeys struct {
	tables []string
	seen   map[string]bool // table + "\x00" + key
	keys   map[string][]string
	sizes  map[string][]int // value sizes, writes only
}

func (t *tableKeys) add(c kvCall) {
	if t.seen == nil {
		t.seen, t.keys, t.sizes = map[string]bool{}, map[string][]string{}, map[string][]int{}
	}
	if _, ok := t.keys[c.table]; !ok {
		t.tables = append(t.tables, c.table)
	}
	for i, k := range c.keys {
		if id := c.table + "\x00" + k; !t.seen[id] {
			t.seen[id] = true
			t.keys[c.table] = append(t.keys[c.table], k)
			if c.sizes != nil {
				t.sizes[c.table] = append(t.sizes[c.table], c.sizes[i])
			}
		}
	}
}
