// Package memory implements engine.Backend with per-table in-process maps —
// the original substrate of the simulated cluster, now behind the backend
// seam. It is the default engine: nothing persists, but it is fast and
// allocation-exact, which the cost-model experiments depend on. It also
// simulates a node outage (SetDown), the one fault a simulated cluster
// injects: the store above sees what a refused connection would show it.
package memory

import (
	"context"
	"fmt"
	"sync"

	"rstore/internal/engine"
	"rstore/internal/types"
)

// Backend is an in-memory engine.Backend. The zero value is not usable; call
// New.
type Backend struct {
	mu     sync.RWMutex
	closed bool
	down   bool                         // SetDown: every call but Close answers errDown
	data   map[string]map[string][]byte // table → key → value
	// bytesStored tracks the resident payload volume for storage accounting.
	bytesStored int64
}

// New returns an empty in-memory backend.
func New() *Backend {
	return &Backend{data: make(map[string]map[string][]byte)}
}

// errDown answers every call to a backend that SetDown took down.
var errDown = fmt.Errorf("memory: backend down (simulated outage): %w", engine.ErrUnavailable)

// SetDown simulates an outage: while down, every operation except Close
// returns an error wrapping engine.ErrUnavailable and changes nothing, and
// BytesStored reports 0, as for a node that cannot be reached. The data
// survives; SetDown(false) brings it back.
func (b *Backend) SetDown(down bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.down = down
}

// usableLocked is the check every operation but Close makes first, under
// the lock it takes: closed, or down.
func (b *Backend) usableLocked() error {
	if b.closed {
		return types.ErrClosed
	}
	if b.down {
		return errDown
	}
	return nil
}

var (
	_ engine.Backend    = (*Backend)(nil)
	_ engine.HashRanger = (*Backend)(nil)
)

// Put stores a copy of value under (table, key).
func (b *Backend) Put(ctx context.Context, table, key string, value []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.usableLocked(); err != nil {
		return err
	}
	b.putLocked(table, key, value)
	return nil
}

// putLocked installs a defensive copy of value; callers hold b.mu.
func (b *Backend) putLocked(table, key string, value []byte) {
	t, ok := b.data[table]
	if !ok {
		t = make(map[string][]byte)
		b.data[table] = t
	}
	if old, ok := t[key]; ok {
		b.bytesStored -= int64(len(old))
	}
	cp := make([]byte, len(value))
	copy(cp, value)
	t[key] = cp
	b.bytesStored += int64(len(cp))
}

// Get returns a copy of the value under (table, key).
func (b *Backend) Get(ctx context.Context, table, key string) ([]byte, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.usableLocked(); err != nil {
		return nil, false, err
	}
	v, ok := b.data[table][key]
	if !ok {
		return nil, false, nil
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, true, nil
}

// Delete removes (table, key); deleting a missing key is a no-op.
func (b *Backend) Delete(ctx context.Context, table, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.usableLocked(); err != nil {
		return err
	}
	if old, ok := b.data[table][key]; ok {
		b.bytesStored -= int64(len(old))
		delete(b.data[table], key)
	}
	return nil
}

// BatchPut applies all entries under one lock acquisition. Memory is always
// "durable", so the batch contract reduces to atomicity against concurrent
// readers.
func (b *Backend) BatchPut(ctx context.Context, table string, entries []engine.Entry) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.usableLocked(); err != nil {
		return err
	}
	for _, e := range entries {
		b.putLocked(table, e.Key, e.Value)
	}
	return nil
}

// Scan visits every key/value of a table under the read lock. Values passed
// to fn alias internal storage; fn must not retain or mutate them. The
// context is checked periodically so a cancelled caller does not pay for a
// full sweep of a large table.
func (b *Backend) Scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.usableLocked(); err != nil {
		return err
	}
	i := 0
	for k, v := range b.data[table] {
		if i++; i&0x3ff == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !fn(k, v) {
			break
		}
	}
	return nil
}

// Tables lists tables that hold at least one key.
func (b *Backend) Tables(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.usableLocked(); err != nil {
		return nil, err
	}
	out := make([]string, 0, len(b.data))
	for t, kv := range b.data {
		if len(kv) > 0 {
			out = append(out, t)
		}
	}
	return out, nil
}

// BytesStored reports the summed length of all live values.
func (b *Backend) BytesStored() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.down {
		return 0
	}
	return b.bytesStored
}

// MultiGet reads keys one Get at a time (engine.GetEach).
func (b *Backend) MultiGet(ctx context.Context, table string, keys []string) ([][]byte, []bool, error) {
	return engine.GetEach(ctx, b, table, keys)
}

// HashTree digests a table in one Scan (engine.HashRanger,
// engine.ScanHashTree).
func (b *Backend) HashTree(ctx context.Context, table string, fanout int) (engine.TreeDigest, error) {
	return engine.ScanHashTree(ctx, b, table, fanout)
}

// HashRange lists one bucket's keys in one Scan (engine.HashRanger,
// engine.ScanHashRange).
func (b *Backend) HashRange(ctx context.Context, table string, fanout, bucket int) ([]engine.KeyHash, error) {
	return engine.ScanHashRange(ctx, b, table, fanout, bucket)
}

// Close marks the backend closed; subsequent operations fail.
func (b *Backend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	return nil
}
