package core

import (
	"context"
	"errors"
	"testing"

	"rstore/internal/bitset"
	"rstore/internal/chunk"
	"rstore/internal/codec"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// TestDecodersRefuseWideOrRepeatedIDs: the placement log, its chunk maps and
// the root name versions and generations as uvarints, and a VersionID is 32
// bits. An id wider than that, a chunk map listing a version twice or out of
// order, and a branch tip naming a version Open did not load are all
// types.ErrCorrupt — read on, each would fold onto some other version.
func TestDecodersRefuseWideOrRepeatedIDs(t *testing.T) {
	ctx := context.Background()
	uvarints := func(vs ...uint64) []byte {
		var buf []byte
		for _, v := range vs {
			buf = codec.PutUvarint(buf, v)
		}
		return buf
	}
	bits := bitset.FromSlice([]uint32{5}).AppendBinary(nil)
	chunkMap := func(versions ...uint64) []byte {
		buf := uvarints(64, uint64(len(versions)))
		for _, v := range versions {
			buf = append(codec.PutUvarint(buf, v), bits...)
		}
		return buf
	}
	root := func(fields ...uint64) []byte { return uvarints(append([]uint64{manifestVersion}, fields...)...) }

	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"placement-record parent 2^32", func() error {
			// Versions 0 and 1; version 1's parent is 2^32, not version 0.
			return newStore(Config{}, false).applyPlacement(uvarints(0, 2, 0, 1, 1<<32, 0), nil)
		}},
		{"chunk-map version 2^32+3", func() error {
			_, err := chunk.DecodeMap(chunkMap(1<<32+3), 64)
			return err
		}},
		{"chunk-map version listed twice", func() error {
			_, err := chunk.DecodeMap(chunkMap(3, 3), 64)
			return err
		}},
		{"chunk-map versions descending", func() error {
			_, err := chunk.DecodeMap(chunkMap(9, 3), 64)
			return err
		}},
		{"root generation 2^32", func() error {
			_, err := newStore(Config{}, false).loadRoot(root(1<<32, 0, 0, 0, 0))
			return err
		}},
		{"root branch tip 2^32+1", func() error {
			_, err := newStore(Config{}, false).loadRoot(append(codec.PutString(root(0, 0, 0, 0, 1), "main"), uvarints(1<<32+1)...))
			return err
		}},
		{"branch tip past the loaded versions", func() error {
			kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1})
			if err != nil {
				return err
			}
			st, err := Open(ctx, Config{KV: kv})
			if err != nil {
				return err
			}
			if _, err := st.Commit(ctx, types.InvalidVersion, Change{Puts: map[types.Key][]byte{"a": []byte("a0")}}); err != nil {
				return err
			}
			st.branches["main"] = 5 // a root no writer saves: the store holds version 0 alone
			if err := st.saveRoot(ctx, st.branches); err != nil {
				return err
			}
			_, err = Open(ctx, Config{KV: kv})
			return err
		}},
	} {
		if err := tc.decode(); !errors.Is(err, types.ErrCorrupt) {
			t.Errorf("%s: %v, want types.ErrCorrupt", tc.name, err)
		}
	}
}
