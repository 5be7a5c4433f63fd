package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rstore/internal/engine"
)

// Layers a span can belong to. A request crosses them top to bottom; the
// first three are root layers (one per replay phase, see workloads.go).
const (
	layerClient  = "client"  // around one internal/client call
	layerServer  = "server"  // http middleware around server.Server
	layerCore    = "core"    // around one direct core.Store call (replay)
	layerKVStore = "kvstore" // around one op's direct kvstore calls (replay)
	layerRemote  = "remote"  // decorator around a remote.Client
	layerLSM     = "lsm"     // decorator around the engine under engined
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder's epoch. Req ties the spans of one operation together;
// it does not cross the storage wire, so lsm spans carry Req 0 and are
// matched to the remote span that contains them (same node, see analyze).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Node   int    `json:"node"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// kvCall is one storage call an operation made, captured at the remote
// decorator during the core replay so the kvstore replay can reissue it.
type kvCall struct {
	req   uint64
	op    string // "multiget", "get", "batchput", "put"
	table string
	keys  []string
	sizes []int // value sizes, writes only
}

// recorder keeps spans in memory until the run ends. A nil recorder (the
// untraced run) is never consulted: the decorators are not installed at
// all.
type recorder struct {
	epoch   time.Time
	on      atomic.Bool // decorators record only while set
	capture atomic.Bool // remote decorators also capture kvCalls
	nextID  atomic.Uint64

	mu    sync.Mutex
	spans []span
	calls []kvCall
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

type traceKey struct{}

// traceRef is what a context carries: the operation's request id and the
// span that is current at this point of the call tree.
type traceRef struct{ req, parent uint64 }

func refOf(ctx context.Context) (traceRef, bool) {
	ref, ok := ctx.Value(traceKey{}).(traceRef)
	return ref, ok
}

// openSpan is a started span; end records it.
type openSpan struct {
	r *recorder
	s span
}

// root starts the root span of a traced operation and returns the context
// that carries its request id down the call tree.
func (r *recorder) root(ctx context.Context, layer, name string) (context.Context, *openSpan) {
	id := r.nextID.Add(1)
	o := &openSpan{r: r, s: span{ID: id, Req: id, Layer: layer, Name: name, Node: -1, Start: int64(time.Since(r.epoch))}}
	return context.WithValue(ctx, traceKey{}, traceRef{req: id, parent: id}), o
}

// child starts a span under whatever ctx carries. Without a traced parent
// the span is recorded with Req 0 (the lsm side of the wire) when
// orphans is set, and not at all otherwise.
func (r *recorder) child(ctx context.Context, layer, name string, node int, orphans bool) (context.Context, *openSpan) {
	if !r.on.Load() {
		return ctx, nil
	}
	ref, ok := refOf(ctx)
	if !ok && !orphans {
		return ctx, nil
	}
	id := r.nextID.Add(1)
	o := &openSpan{r: r, s: span{ID: id, Parent: ref.parent, Req: ref.req, Layer: layer, Name: name, Node: node, Start: int64(time.Since(r.epoch))}}
	if ok {
		ctx = context.WithValue(ctx, traceKey{}, traceRef{req: ref.req, parent: id})
	}
	return ctx, o
}

func (o *openSpan) end(bytes int64) {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.r.epoch))
	o.s.Bytes = bytes
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

func (r *recorder) addCall(c kvCall) {
	r.mu.Lock()
	r.calls = append(r.calls, c)
	r.mu.Unlock()
}

// take returns and clears everything recorded so far.
func (r *recorder) take() ([]span, []kvCall) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, c := r.spans, r.calls
	r.spans, r.calls = make([]span, 0, 1<<16), nil
	return s, c
}

// writeSpans appends spans to path as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- http: request id header, server middleware ---

const traceHeader = "X-Bench-Req"

// headerTransport carries a traced operation's ids to the server side in a
// request header; untraced requests pass through untouched.
type headerTransport struct{ base http.RoundTripper }

func (t headerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := refOf(req.Context()); ok {
		req = req.Clone(req.Context())
		req.Header.Set(traceHeader, strconv.FormatUint(ref.req, 10)+"/"+strconv.FormatUint(ref.parent, 10))
	}
	return t.base.RoundTrip(req)
}

// countingWriter counts response body bytes. It keeps Flush and Unwrap so
// the NDJSON handlers still flush per record and set write deadlines.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// traceMiddleware records a server span around next for requests that carry
// the trace header. Bytes is the request body plus the response body.
func traceMiddleware(r *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var ref traceRef
		if id, parent, ok := strings.Cut(req.Header.Get(traceHeader), "/"); ok {
			ref.req, _ = strconv.ParseUint(id, 10, 64)
			ref.parent, _ = strconv.ParseUint(parent, 10, 64)
		}
		if ref.req == 0 {
			next.ServeHTTP(w, req)
			return
		}
		ctx, sp := r.child(context.WithValue(req.Context(), traceKey{}, ref), layerServer, req.Method+" "+req.URL.Path, -1, false)
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, req.WithContext(ctx))
		body := req.ContentLength
		if body < 0 {
			body = 0
		}
		sp.end(cw.n + body)
	})
}

// --- storage: backend decorator ---

// tracedBackend times every call into an engine.Backend. One wraps each
// remote.Client (layer remote, handed to kvstore through Config.NewBackend)
// and one wraps each engine under engined (layer lsm). It forwards the four
// optional seams so the cluster behaves as it does without it: an inner
// backend that lacks one answers with the seam's own sentinel, exactly as
// kvstore and engined would conclude from a failed type assertion.
type tracedBackend struct {
	inner engine.Backend
	rec   *recorder
	layer string
	node  int
}

var (
	_ engine.Backend     = (*tracedBackend)(nil)
	_ engine.MultiGetter = (*tracedBackend)(nil)
	_ engine.Compactor   = (*tracedBackend)(nil)
	_ engine.Resetter    = (*tracedBackend)(nil)
	_ engine.HashRanger  = (*tracedBackend)(nil)
)

func (b *tracedBackend) begin(ctx context.Context, name string) (context.Context, *openSpan) {
	return b.rec.child(ctx, b.layer, name, b.node, b.layer == layerLSM)
}

// note captures a call for the kvstore replay (remote layer, replay phase).
func (b *tracedBackend) note(ctx context.Context, op, table string, keys []string, sizes []int) {
	if b.layer != layerRemote || !b.rec.capture.Load() {
		return
	}
	if ref, ok := refOf(ctx); ok {
		b.rec.addCall(kvCall{req: ref.req, op: op, table: table, keys: append([]string(nil), keys...), sizes: sizes})
	}
}

func (b *tracedBackend) Put(ctx context.Context, table, key string, value []byte) error {
	b.note(ctx, "put", table, []string{key}, []int{len(value)})
	ctx, sp := b.begin(ctx, "put")
	err := b.inner.Put(ctx, table, key, value)
	sp.end(int64(len(value)))
	return err
}

func (b *tracedBackend) Get(ctx context.Context, table, key string) ([]byte, bool, error) {
	b.note(ctx, "get", table, []string{key}, nil)
	ctx, sp := b.begin(ctx, "get")
	v, ok, err := b.inner.Get(ctx, table, key)
	sp.end(int64(len(v)))
	return v, ok, err
}

func (b *tracedBackend) MultiGet(ctx context.Context, table string, keys []string) ([][]byte, []bool, error) {
	b.note(ctx, "multiget", table, keys, nil)
	ctx, sp := b.begin(ctx, "multiget")
	var (
		values  [][]byte
		present []bool
		err     error
	)
	if mg, ok := b.inner.(engine.MultiGetter); ok {
		values, present, err = mg.MultiGet(ctx, table, keys)
	} else {
		values, present = make([][]byte, len(keys)), make([]bool, len(keys))
		for i, k := range keys {
			if values[i], present[i], err = b.inner.Get(ctx, table, k); err != nil {
				values, present = nil, nil
				break
			}
		}
	}
	var n int64
	for _, v := range values {
		n += int64(len(v))
	}
	sp.end(n)
	return values, present, err
}

func (b *tracedBackend) Delete(ctx context.Context, table, key string) error {
	ctx, sp := b.begin(ctx, "delete")
	err := b.inner.Delete(ctx, table, key)
	sp.end(0)
	return err
}

func (b *tracedBackend) BatchPut(ctx context.Context, table string, entries []engine.Entry) error {
	var n int64
	if b.layer == layerRemote && b.rec.capture.Load() {
		keys, sizes := make([]string, len(entries)), make([]int, len(entries))
		for i, e := range entries {
			keys[i], sizes[i] = e.Key, len(e.Value)
		}
		b.note(ctx, "batchput", table, keys, sizes)
	}
	for _, e := range entries {
		n += int64(len(e.Value))
	}
	ctx, sp := b.begin(ctx, "batchput")
	err := b.inner.BatchPut(ctx, table, entries)
	sp.end(n)
	return err
}

func (b *tracedBackend) Scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	ctx, sp := b.begin(ctx, "scan")
	err := b.inner.Scan(ctx, table, fn)
	sp.end(0)
	return err
}

func (b *tracedBackend) Tables(ctx context.Context) ([]string, error) { return b.inner.Tables(ctx) }
func (b *tracedBackend) BytesStored() int64                           { return b.inner.BytesStored() }
func (b *tracedBackend) Close() error                                 { return b.inner.Close() }

func (b *tracedBackend) Compact(ctx context.Context) (engine.CompactionStats, error) {
	if c, ok := b.inner.(engine.Compactor); ok {
		return c.Compact(ctx)
	}
	return engine.CompactionStats{}, engine.ErrNoCompaction
}

func (b *tracedBackend) CompactionStats(ctx context.Context) (engine.CompactionStats, error) {
	if c, ok := b.inner.(engine.Compactor); ok {
		return c.CompactionStats(ctx)
	}
	return engine.CompactionStats{}, engine.ErrNoCompaction
}

func (b *tracedBackend) Reset(ctx context.Context) error {
	if r, ok := b.inner.(engine.Resetter); ok {
		return r.Reset(ctx)
	}
	return engine.ErrNoReset
}

func (b *tracedBackend) HashTree(ctx context.Context, table string, fanout int) (engine.TreeDigest, error) {
	if h, ok := b.inner.(engine.HashRanger); ok {
		return h.HashTree(ctx, table, fanout)
	}
	return engine.TreeDigest{}, engine.ErrNoHashRange
}

func (b *tracedBackend) HashRange(ctx context.Context, table string, fanout, bucket int) ([]engine.KeyHash, error) {
	if h, ok := b.inner.(engine.HashRanger); ok {
		return h.HashRange(ctx, table, fanout, bucket)
	}
	return nil, engine.ErrNoHashRange
}

// --- analysis ---

// opTimes is one traced operation broken into layers. All values are
// nanoseconds of wall clock. Layers that fan out in parallel (remote, lsm)
// count the union of their spans, never the sum, so the four parts add up
// to total exactly:
//
//	total = (total-below) + (below-remote) + (remote-lsm) + lsm
//
// where below is the server span for a client root and total itself for a
// core or kvstore root (nothing sits between those roots and storage).
type opTimes struct {
	req                      uint64
	layer                    string // layer of the root span
	total, below             int64
	remote, lsm              int64
	remoteCalls, lsmCalls    int
	lsmBatchPuts             int // durable (fsync-on-batch) writes among lsmCalls
	remoteBytes, serverBytes int64
}

func (o opTimes) rootSelf() int64   { return o.total - o.below }
func (o opTimes) aboveStore() int64 { return o.below - o.remote }
func (o opTimes) remoteSelf() int64 { return o.remote - o.lsm }

type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals.
func unionLen(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total int64
	var cur interval
	for i, x := range iv {
		switch {
		case i == 0:
			cur = x
		case x.lo <= cur.hi:
			if x.hi > cur.hi {
				cur.hi = x.hi
			}
		default:
			total += cur.hi - cur.lo
			cur = x
		}
	}
	if len(iv) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// analyze groups spans by request id and computes each operation's layer
// times. lsm spans have no request id: each is claimed by the earliest
// remote span on the same node whose interval contains it.
func analyze(spans []span) map[uint64]opTimes {
	ops := make(map[uint64]opTimes)
	remoteByReq := make(map[uint64][]int)
	lsmByNode := make(map[int][]int)
	for i, s := range spans {
		switch s.Layer {
		case layerClient, layerCore, layerKVStore:
			o := ops[s.Req]
			o.req, o.layer, o.total = s.Req, s.Layer, s.End-s.Start
			if s.Layer != layerClient {
				o.below = o.total
			}
			ops[s.Req] = o
		case layerServer:
			o := ops[s.Req]
			o.below, o.serverBytes = s.End-s.Start, s.Bytes
			ops[s.Req] = o
		case layerRemote:
			remoteByReq[s.Req] = append(remoteByReq[s.Req], i)
		case layerLSM:
			lsmByNode[s.Node] = append(lsmByNode[s.Node], i)
		}
	}
	for _, idx := range lsmByNode {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	claimed := make(map[int]bool)
	// Claim in start order so that, under concurrency, an lsm span goes to
	// the earliest remote span that contains it.
	order := make([]int, 0, len(spans))
	for _, idx := range remoteByReq {
		order = append(order, idx...)
	}
	sort.Slice(order, func(a, b int) bool { return spans[order[a]].Start < spans[order[b]].Start })
	lsmOf := make(map[uint64][]interval)
	batchPuts := make(map[uint64]int)
	for _, ri := range order {
		r := spans[ri]
		node := lsmByNode[r.Node]
		from := sort.Search(len(node), func(k int) bool { return spans[node[k]].Start >= r.Start })
		for _, li := range node[from:] {
			l := spans[li]
			if l.Start > r.End {
				break
			}
			if l.End <= r.End && !claimed[li] {
				claimed[li] = true
				lsmOf[r.Req] = append(lsmOf[r.Req], interval{l.Start, l.End})
				if l.Name == "batchput" {
					batchPuts[r.Req]++
				}
			}
		}
	}
	for req, idx := range remoteByReq {
		o, ok := ops[req]
		if !ok || o.total == 0 {
			continue // background traffic or an operation whose root was not recorded
		}
		iv := make([]interval, len(idx))
		for k, ri := range idx {
			iv[k] = interval{spans[ri].Start, spans[ri].End}
			o.remoteBytes += spans[ri].Bytes
		}
		o.remote, o.remoteCalls = unionLen(iv), len(idx)
		o.lsm, o.lsmCalls, o.lsmBatchPuts = unionLen(lsmOf[req]), len(lsmOf[req]), batchPuts[req]
		ops[req] = o
	}
	for req, o := range ops {
		if o.total == 0 {
			delete(ops, req) // server span without its client root
		}
	}
	return ops
}
