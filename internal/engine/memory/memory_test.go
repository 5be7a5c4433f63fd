package memory

import (
	"context"
	"errors"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/types"
)

// TestDownBackend: a backend taken down answers engine.ErrUnavailable on
// every operation and seam it serves, changes nothing, reports 0 stored
// bytes, and still closes; brought back up, it holds what it held.
func TestDownBackend(t *testing.T) {
	ctx := context.Background()
	b := New()
	for _, k := range []string{"a", "b", "c"} {
		if err := b.Put(ctx, "t", k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	stored := b.BytesStored()
	digest, err := engine.HashTree(ctx, b, "t", engine.DefaultHashFanout)
	if err != nil {
		t.Fatal(err)
	}

	b.SetDown(true)
	ops := []struct {
		name string
		call func() error
	}{
		{"Put", func() error { return b.Put(ctx, "t", "a", []byte("new")) }},
		{"Get", func() error { _, _, err := b.Get(ctx, "t", "a"); return err }},
		{"Delete", func() error { return b.Delete(ctx, "t", "b") }},
		{"BatchPut", func() error { return b.BatchPut(ctx, "t", []engine.Entry{{Key: "d", Value: []byte("v-d")}}) }},
		{"Scan", func() error { return b.Scan(ctx, "t", func(string, []byte) bool { return true }) }},
		{"Tables", func() error { _, err := b.Tables(ctx); return err }},
		{"MultiGet", func() error { _, _, err := engine.MultiGet(ctx, b, "t", []string{"a"}); return err }},
		{"HashTree", func() error { _, err := engine.HashTree(ctx, b, "t", engine.DefaultHashFanout); return err }},
		{"HashRange", func() error { _, err := engine.HashRange(ctx, b, "t", engine.DefaultHashFanout, 0); return err }},
		{"Reset", func() error { return engine.Reset(ctx, b) }},
	}
	for _, op := range ops {
		if err := op.call(); !errors.Is(err, engine.ErrUnavailable) {
			t.Errorf("%s on a down backend: %v, want engine.ErrUnavailable", op.name, err)
		}
	}
	if got := b.BytesStored(); got != 0 {
		t.Errorf("down backend reports %d stored bytes, want 0", got)
	}

	b.SetDown(false)
	if got := b.BytesStored(); got != stored {
		t.Errorf("BytesStored = %d after the outage, was %d", got, stored)
	}
	after, err := engine.HashTree(ctx, b, "t", engine.DefaultHashFanout)
	if err != nil {
		t.Fatal(err)
	}
	if after.Root != digest.Root {
		t.Error("the outage changed the table")
	}

	b.SetDown(true)
	if err := b.Close(); err != nil {
		t.Fatalf("Close on a down backend: %v", err)
	}
	b.SetDown(false)
	if _, _, err := b.Get(ctx, "t", "a"); !errors.Is(err, types.ErrClosed) {
		t.Errorf("Get after Close: %v, want types.ErrClosed", err)
	}
}
