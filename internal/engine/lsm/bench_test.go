package lsm

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rstore/internal/engine"
)

// BenchmarkChurn is the engine's share of an ingesting store without the
// stack above it: a write-once table (chunk segments) beside a table whose
// every key is deleted 16 batches after it was put (commit deltas awaiting
// their batch's placement), at default options. It reports what the dead
// keys cost — diskB/liveB, the directory's size per live value byte at the
// end, and rewrittenB/putB, the bytes merges wrote per byte put. With one
// run of SSTables per user table the churn table's files are unlinked as
// they die and the write-once table's are rewritten by its own size tiering
// only, and with one log per table the churn table's log is replaced once
// mostly dead: ≈ 1.00 and ≈ 0.37; one log for both tables gave ≈ 1.04, and
// a shared run ≈ 1.12 and ≈ 0.49.
func BenchmarkChurn(b *testing.B) {
	const (
		steps    = 1200
		lifetime = 16
		onceLen  = 40 << 10
		churnLen = 48 << 10
	)
	ctx := context.Background()
	value := make([]byte, churnLen)
	rand.New(rand.NewSource(1)).Read(value)
	var disk, live, rewritten, put float64
	for n := 0; n < b.N; n++ {
		be, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			if err := be.BatchPut(ctx, "churn", []engine.Entry{{Key: fmt.Sprintf("delta-%06d", i), Value: value}}); err != nil {
				b.Fatal(err)
			}
			if err := be.BatchPut(ctx, "once", []engine.Entry{{Key: fmt.Sprintf("segment-%06d", i), Value: value[:onceLen]}}); err != nil {
				b.Fatal(err)
			}
			if i >= lifetime {
				if err := be.Delete(ctx, "churn", fmt.Sprintf("delta-%06d", i-lifetime)); err != nil {
					b.Fatal(err)
				}
			}
		}
		st, err := be.CompactionStats(ctx)
		if err != nil {
			b.Fatal(err)
		}
		disk += float64(st.DiskBytes)
		live += float64(be.BytesStored())
		put += float64(steps * (onceLen + churnLen))
		be.mu.RLock()
		rewritten += float64(be.rewritten)
		be.mu.RUnlock()
		if err := be.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(steps * (onceLen + churnLen))
	b.ReportMetric(disk/live, "diskB/liveB")
	b.ReportMetric(rewritten/put, "rewrittenB/putB")
}
