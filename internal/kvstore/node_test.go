package kvstore

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote/engined"
)

// TestAbsentSeamRule pins the one rule for a backend without the optional
// seams (internal/engine/seams.go), on the two paths that apply it: a
// kvstore node holding the bare backend, and engined serving it over TCP.
func TestAbsentSeamRule(t *testing.T) {
	ctx := context.Background()
	bare := func() engine.Backend { return struct{ engine.Backend }{memory.New()} }
	for _, row := range []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"in-process", func(*testing.T) Config {
			return Config{NewBackend: func(int) (engine.Backend, error) { return bare(), nil }}
		}},
		{"engined over TCP", func(t *testing.T) Config {
			be := bare()
			srv, err := engined.Start("127.0.0.1:0", be)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close(); be.Close() })
			return Config{Engine: EngineRemote, NodeAddrs: []string{srv.Addr().String()}, Remote: remoteOpts()}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			s, err := Open(ctx, row.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			n := s.nodes[0]

			for _, k := range []string{"b", "a", "c"} {
				if err := n.put(ctx, "t", k, []byte("v-"+k)); err != nil {
					t.Fatal(err)
				}
			}
			values, present, err := n.multiGet(ctx, "t", []string{"c", "nope", "a", "c"})
			if err != nil {
				t.Fatalf("multiGet fallback: %v", err)
			}
			if got := fmt.Sprintf("%q %v", values, present); got != `["v-c" "" "v-a" "v-c"] [true false true true]` {
				t.Fatalf("multiGet fallback out of request order: %s", got)
			}

			for _, c := range []struct {
				op   string
				call func() error
				want error
			}{
				{"compactStats", func() error { _, err := n.compactStats(ctx); return err }, engine.ErrNoCompaction},
				{"reset", func() error { return n.reset(ctx) }, engine.ErrNoReset},
				{"hashTree", func() error { _, err := n.hashTree(ctx, "t", engine.DefaultHashFanout); return err }, engine.ErrNoHashRange},
				{"hashRange", func() error { _, err := n.hashRange(ctx, "t", engine.DefaultHashFanout, 0); return err }, engine.ErrNoHashRange},
			} {
				err := c.call()
				if !errors.Is(err, c.want) {
					t.Errorf("%s: %v, want %v", c.op, err, c.want)
				}
				if isUnavailable(err) {
					t.Errorf("%s: %v classifies as unavailable; the node was reached", c.op, err)
				}
			}

			if err := s.Reset(ctx); !errors.Is(err, engine.ErrNoReset) {
				t.Errorf("Store.Reset = %v, want ErrNoReset", err)
			}
		})
	}
}

// countingBackend implements every seam and counts the calls that reach it.
type countingBackend struct{ calls atomic.Int64 }

func (b *countingBackend) Put(context.Context, string, string, []byte) error {
	b.calls.Add(1)
	return nil
}
func (b *countingBackend) Get(context.Context, string, string) ([]byte, bool, error) {
	b.calls.Add(1)
	return nil, false, nil
}
func (b *countingBackend) MultiGet(_ context.Context, _ string, keys []string) ([][]byte, []bool, error) {
	b.calls.Add(1)
	return make([][]byte, len(keys)), make([]bool, len(keys)), nil
}
func (b *countingBackend) Delete(context.Context, string, string) error {
	b.calls.Add(1)
	return nil
}
func (b *countingBackend) BatchPut(context.Context, string, []engine.Entry) error {
	b.calls.Add(1)
	return nil
}
func (b *countingBackend) Scan(context.Context, string, func(string, []byte) bool) error {
	b.calls.Add(1)
	return nil
}
func (b *countingBackend) Tables(context.Context) ([]string, error) {
	b.calls.Add(1)
	return nil, nil
}
func (b *countingBackend) BytesStored() int64 {
	b.calls.Add(1)
	return 0
}
func (b *countingBackend) Close() error { return nil }
func (b *countingBackend) Compact(context.Context) (engine.CompactionStats, error) {
	b.calls.Add(1)
	return engine.CompactionStats{}, nil
}
func (b *countingBackend) CompactionStats(context.Context) (engine.CompactionStats, error) {
	b.calls.Add(1)
	return engine.CompactionStats{}, nil
}
func (b *countingBackend) Reset(context.Context) error {
	b.calls.Add(1)
	return nil
}
func (b *countingBackend) HashTree(context.Context, string, int) (engine.TreeDigest, error) {
	b.calls.Add(1)
	return engine.TreeDigest{}, nil
}
func (b *countingBackend) HashRange(context.Context, string, int, int) ([]engine.KeyHash, error) {
	b.calls.Add(1)
	return nil, nil
}

// TestInjectedDownNodeNeverTouchesBackend: failure injection is one choke
// point (node.live) in front of every node operation — a down node answers
// engine.ErrUnavailable and its backend sees nothing.
func TestInjectedDownNodeNeverTouchesBackend(t *testing.T) {
	ctx := context.Background()
	be := &countingBackend{}
	s, err := Open(ctx, Config{NewBackend: func(int) (engine.Backend, error) { return be, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := s.nodes[0]
	ops := []struct {
		name string
		call func() error
	}{
		{"put", func() error { return n.put(ctx, "t", "k", nil) }},
		{"get", func() error { _, _, err := n.get(ctx, "t", "k"); return err }},
		{"multiGet", func() error { _, _, err := n.multiGet(ctx, "t", []string{"k"}); return err }},
		{"del", func() error { return n.del(ctx, "t", "k") }},
		{"batchPut", func() error { return n.batchPut(ctx, "t", []engine.Entry{{Key: "k"}}) }},
		{"scan", func() error { return n.scan(ctx, "t", func(string, []byte) bool { return true }) }},
		{"tables", func() error { _, err := n.tables(ctx); return err }},
		{"stored", func() error { _, err := n.stored(ctx); return err }},
		{"compactStats", func() error { _, err := n.compactStats(ctx); return err }},
		{"reset", func() error { return n.reset(ctx) }},
		{"hashTree", func() error { _, err := n.hashTree(ctx, "t", 4); return err }},
		{"hashRange", func() error { _, err := n.hashRange(ctx, "t", 4, 0); return err }},
	}

	// Up: every operation reaches the backend exactly once.
	for i, op := range ops {
		if err := op.call(); err != nil {
			t.Fatalf("%s on an up node: %v", op.name, err)
		}
		if got := be.calls.Load(); got != int64(i+1) {
			t.Fatalf("%s: backend saw %d calls, want %d", op.name, got, i+1)
		}
	}

	if err := s.SetNodeUp(0, false); err != nil {
		t.Fatal(err)
	}
	be.calls.Store(0)
	if n.isUp() {
		t.Error("injected-down node reports up")
	}
	for _, op := range ops {
		if err := op.call(); !errors.Is(err, engine.ErrUnavailable) {
			t.Errorf("%s on a down node: %v, want engine.ErrUnavailable", op.name, err)
		}
	}
	if got := be.calls.Load(); got != 0 {
		t.Errorf("backend of a down node saw %d calls", got)
	}

	if err := s.SetNodeUp(0, true); err != nil {
		t.Fatal(err)
	}
	if err := n.put(ctx, "t", "k", nil); err != nil || be.calls.Load() != 1 {
		t.Errorf("revived node: put = %v, %d backend calls", err, be.calls.Load())
	}
}
