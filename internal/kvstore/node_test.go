package kvstore

import (
	"context"
	"errors"
	"fmt"
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
