package main

import (
	"context"
	"errors"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote"
	"rstore/internal/engine/remote/engined"
)

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		iv   []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{30, 70}, {20, 50}}, 50},          // overlapping: not 70
		{[]interval{{0, 10}, {10, 20}, {40, 50}}, 30}, // touching merge, gap does not
		{[]interval{{0, 100}, {10, 20}, {30, 40}}, 100},
	} {
		if got := unionLen(c.iv); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

// One operation whose storage calls fan out to two nodes in parallel: the
// children overlap, so a layer's time is the union of its spans and the
// four parts add up to the client span exactly.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Layer: layerClient, Node: -1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Layer: layerServer, Node: -1, Start: 10, End: 90, Bytes: 500},
		{ID: 3, Parent: 2, Req: 1, Layer: layerRemote, Node: 0, Start: 20, End: 50, Bytes: 7},
		{ID: 4, Parent: 2, Req: 1, Layer: layerRemote, Node: 1, Start: 30, End: 70, Bytes: 8},
		{ID: 5, Layer: layerLSM, Name: "get", Node: 0, Start: 25, End: 45},
		{ID: 6, Layer: layerLSM, Name: "batchput", Node: 1, Start: 35, End: 60},
		{ID: 7, Layer: layerLSM, Name: "get", Node: 2, Start: 35, End: 60}, // no remote span on node 2: nobody's
		{ID: 8, Req: 99, Layer: layerRemote, Node: 0, Start: 0, End: 5},    // background traffic: no root
	}
	ops := analyze(spans)
	if len(ops) != 1 {
		t.Fatalf("analyze found %d operations, want 1", len(ops))
	}
	o := ops[1]
	if o.total != 100 || o.below != 80 || o.remote != 50 || o.lsm != 35 {
		t.Errorf("total/below/remote/lsm = %d/%d/%d/%d, want 100/80/50/35", o.total, o.below, o.remote, o.lsm)
	}
	if got := o.rootSelf() + o.aboveStore() + o.remoteSelf() + o.lsm; got != o.total {
		t.Errorf("self times add up to %d, want the client span's %d", got, o.total)
	}
	if o.rootSelf() != 20 || o.aboveStore() != 30 || o.remoteSelf() != 15 {
		t.Errorf("self times client/above/remote = %d/%d/%d, want 20/30/15", o.rootSelf(), o.aboveStore(), o.remoteSelf())
	}
	if o.remoteCalls != 2 || o.lsmCalls != 2 || o.lsmBatchPuts != 1 || o.remoteBytes != 15 || o.serverBytes != 500 {
		t.Errorf("counts: %+v", o)
	}
}

// Two clients hit the same node at once: an lsm span inside both remote
// spans goes to the one that started first, and only to it.
func TestLSMSpanClaimedOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Layer: layerCore, Node: -1, Start: 0, End: 100},
		{ID: 2, Req: 2, Layer: layerCore, Node: -1, Start: 5, End: 100},
		{ID: 3, Req: 1, Layer: layerRemote, Node: 0, Start: 10, End: 60},
		{ID: 4, Req: 2, Layer: layerRemote, Node: 0, Start: 20, End: 80},
		{ID: 5, Layer: layerLSM, Node: 0, Start: 30, End: 40},
		{ID: 6, Layer: layerLSM, Node: 0, Start: 65, End: 75},
	}
	ops := analyze(spans)
	if ops[1].lsm != 10 || ops[2].lsm != 10 || ops[1].lsmCalls != 1 || ops[2].lsmCalls != 1 {
		t.Errorf("lsm time %d and %d, want 10 and 10", ops[1].lsm, ops[2].lsm)
	}
	if ops[1].below != ops[1].total {
		t.Error("nothing sits between a core root and storage")
	}
}

// The decorated cluster must behave as the plain one does: the decorator
// forwards every optional seam, and a batched read crosses
// decorator → remote.Client → engined → decorator → engine and back.
func TestTracedBackendKeepsSeamsAndRoundTrips(t *testing.T) {
	ctx := context.Background()
	rec := newRecorder()
	rec.on.Store(true)

	be, err := lsm.Open(t.TempDir(), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	node, err := engined.Start("127.0.0.1:0", &tracedBackend{inner: be, rec: rec, layer: layerLSM, node: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	client, err := remote.Dial(node.Addr().String(), remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var wrapped engine.Backend = &tracedBackend{inner: client, rec: rec, layer: layerRemote, node: 0}

	if _, ok := wrapped.(engine.MultiGetter); !ok {
		t.Error("decorator hides engine.MultiGetter")
	}
	if _, ok := wrapped.(engine.Resetter); !ok {
		t.Error("decorator hides engine.Resetter")
	}
	if c, ok := wrapped.(engine.Compactor); !ok {
		t.Error("decorator hides engine.Compactor")
	} else if _, err := c.CompactionStats(ctx); err != nil {
		t.Errorf("CompactionStats through both decorators: %v", err)
	}
	if h, ok := wrapped.(engine.HashRanger); !ok {
		t.Error("decorator hides engine.HashRanger")
	} else if _, err := h.HashTree(ctx, "t", engine.DefaultHashFanout); err != nil {
		t.Errorf("HashTree through both decorators: %v", err)
	}
	// An inner backend without the seams answers with their sentinels, and
	// a batched read falls back to one Get per key.
	bare := &tracedBackend{inner: struct{ engine.Backend }{memory.New()}, rec: rec, layer: layerLSM}
	if _, err := bare.Compact(ctx); !errors.Is(err, engine.ErrNoCompaction) {
		t.Errorf("Compact without the seam: %v", err)
	}
	if err := bare.Reset(ctx); !errors.Is(err, engine.ErrNoReset) {
		t.Errorf("Reset without the seam: %v", err)
	}
	if _, err := bare.HashRange(ctx, "t", engine.DefaultHashFanout, 0); !errors.Is(err, engine.ErrNoHashRange) {
		t.Errorf("HashRange without the seam: %v", err)
	}
	if err := bare.Put(ctx, "t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := bare.MultiGet(ctx, "t", []string{"k", "nope"}); err != nil || string(v[0]) != "v" || !ok[0] || ok[1] {
		t.Errorf("MultiGet fallback = %q %v %v", v, ok, err)
	}

	if err := wrapped.BatchPut(ctx, "t", []engine.Entry{{Key: "a", Value: []byte("one")}, {Key: "b", Value: []byte("three")}}); err != nil {
		t.Fatal(err)
	}
	rctx, root := rec.root(ctx, layerCore, "test")
	values, present, err := wrapped.(engine.MultiGetter).MultiGet(rctx, "t", []string{"a", "missing", "b"})
	root.end(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 3 || string(values[0]) != "one" || present[1] || string(values[2]) != "three" {
		t.Fatalf("MultiGet = %q %v", values, present)
	}

	spans, _ := rec.take()
	o, ok := analyze(spans)[root.s.Req]
	if !ok {
		t.Fatal("the traced MultiGet left no operation")
	}
	if o.remoteCalls != 1 || o.remoteBytes != 8 {
		t.Errorf("remote layer saw %d calls, %d bytes; want 1 call, 8 bytes", o.remoteCalls, o.remoteBytes)
	}
	if o.lsmCalls != 3 {
		t.Errorf("engine saw %d reads inside the round trip, want 3 (engined serves a batch key by key)", o.lsmCalls)
	}
	if o.lsm <= 0 || o.lsm > o.remote || o.remote > o.total {
		t.Errorf("layer times do not nest: total %d remote %d lsm %d", o.total, o.remote, o.lsm)
	}
}
