package kvstore

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

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
				if err := n.be.Put(ctx, "t", k, []byte("v-"+k)); err != nil {
					t.Fatal(err)
				}
			}
			values, present, err := engine.MultiGet(ctx, n.be, "t", []string{"c", "nope", "a", "c"})
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
				{"compactStats", func() error { _, err := engine.ReadCompactionStats(ctx, n.be); return err }, engine.ErrNoCompaction},
				{"hashTree", func() error { _, err := engine.HashTree(ctx, n.be, "t", engine.DefaultHashFanout); return err }, engine.ErrNoHashRange},
				{"hashRange", func() error { _, err := engine.HashRange(ctx, n.be, "t", engine.DefaultHashFanout, 0); return err }, engine.ErrNoHashRange},
			} {
				err := c.call()
				if !errors.Is(err, c.want) {
					t.Errorf("%s: %v, want %v", c.op, err, c.want)
				}
				if isUnavailable(err) {
					t.Errorf("%s: %v classifies as unavailable; the node was reached", c.op, err)
				}
			}
		})
	}
}

// pinCounter is a memory backend that counts the cluster pins put to it.
// The first pin's Put waits for a second one to arrive, or 200 ms, so that a
// write beside it finds the pin in flight; while fail is set, pins fail.
type pinCounter struct {
	*memory.Backend
	pins   atomic.Int32
	second chan struct{}
	fail   atomic.Bool
}

func (p *pinCounter) Put(ctx context.Context, table, key string, value []byte) error {
	if table == clusterTable {
		switch p.pins.Add(1) {
		case 1:
			select {
			case <-p.second:
			case <-time.After(200 * time.Millisecond):
			}
		case 2:
			close(p.second)
		}
		if p.fail.Load() {
			return errors.New("pin refused")
		}
	}
	return p.Backend.Put(ctx, table, key, value)
}

// TestPinFirstOnce: two concurrent first writes to a fresh node put its
// cluster pin once, the second waiting for the first's; a pin that fails is
// put again by the next write.
func TestPinFirstOnce(t *testing.T) {
	ctx := context.Background()
	for _, failFirst := range []bool{false, true} {
		be := &pinCounter{Backend: memory.New(), second: make(chan struct{})}
		be.fail.Store(failFirst)
		srv, err := engined.Start("127.0.0.1:0", be)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		s := openRemote(t, []string{srv.Addr().String()}, 1)
		errs := make(chan error, 2)
		for _, k := range []string{"a", "b"} {
			go func() { errs <- s.Put(ctx, "t", k, []byte(k)) }()
		}
		for range 2 {
			if err := <-errs; (err != nil) != failFirst {
				t.Fatalf("failing pin %v: a first write returned %v", failFirst, err)
			}
		}
		if got := be.pins.Load(); got != 1 && !failFirst || got != 2 && failFirst {
			t.Fatalf("failing pin %v: %d pins put", failFirst, got)
		}
		if !failFirst {
			continue
		}
		be.fail.Store(false)
		if err := s.Put(ctx, "t", "c", []byte("c")); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := be.Backend.Get(ctx, clusterTable, nodeIDKey); !ok || err != nil {
			t.Fatalf("after a failed pin, the next write left no pin (%v)", err)
		}
	}
}
