package lsm

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"rstore/internal/chunk"
	"rstore/internal/engine"
	"rstore/internal/engine/reclog"
)

// countingFS is a reclog.FS that counts what passes through it: the files
// open (opens less closes), the bytes written, and the fsyncs of files and
// of directories.
type countingFS struct {
	reclog.FS
	open, written, syncs atomic.Int64
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (reclog.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	c.open.Add(1)
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) SyncDir(dir string) error {
	c.syncs.Add(1)
	return c.FS.SyncDir(dir)
}

type countingFile struct {
	reclog.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

func (f *countingFile) Close() error {
	f.fs.open.Add(-1)
	return f.File.Close()
}

// BenchmarkIngest is what a placement run asks of one node's engine: 100
// BatchPuts of 62 random 33 KiB values each — a 2 MiB group of coded chunk
// segments — with keys in chunk.SegmentKey order, at default options. It
// reports writtenB/putB, the bytes the engine wrote per value byte put, and
// syncs/batch, the file and directory fsyncs per BatchPut. The first batch
// takes the log, the memtables having room for it; every later one is
// ingested as one SSTable, which tiering never rewrites (the tables' key
// ranges are disjoint): ≈ 1.00 and 4.0. Through the log, the memtable, the
// flush and the tier merges it was 3.87 and 3.61.
func BenchmarkIngest(b *testing.B) {
	const (
		batches  = 100
		perBatch = 62
		valueLen = 33 << 10
		segments = 16 // per chunk
	)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	values := make([][]byte, batches*perBatch)
	for i := range values {
		values[i] = make([]byte, valueLen)
		rng.Read(values[i])
	}
	var written, put, syncs float64
	for n := 0; n < b.N; n++ {
		fsys := &countingFS{FS: reclog.OS}
		be, err := open(fsys, b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		start, startSyncs := fsys.written.Load(), fsys.syncs.Load()
		for i := 0; i < batches; i++ {
			ents := make([]engine.Entry, perBatch)
			for j := range ents {
				k := i*perBatch + j
				ents[j] = engine.Entry{Key: chunk.SegmentKey(1, chunk.ID(k/segments), uint32(k%segments)), Value: values[k]}
			}
			if err := be.BatchPut(ctx, "chunks", ents); err != nil {
				b.Fatal(err)
			}
		}
		written += float64(fsys.written.Load() - start)
		syncs += float64(fsys.syncs.Load() - startSyncs)
		put += float64(batches * perBatch * valueLen)
		if err := be.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(batches * perBatch * valueLen)
	b.ReportMetric(written/put, "writtenB/putB")
	b.ReportMetric(syncs/float64(b.N*batches), "syncs/batch")
}

// BenchmarkChurn is the engine's share of an ingesting store without the
// stack above it: a write-once table (chunk segments) beside a table whose
// every key is deleted 16 batches after it was put (commit deltas awaiting
// their batch's placement), at default options. It reports what the dead
// keys cost — diskB/liveB, the directory's size per live value byte at the
// end, and rewrittenB/putB, the bytes merges wrote per byte put. With one
// run of SSTables per user table the churn table's files are unlinked as
// they die, with one log per table the churn table's log is replaced once
// mostly dead, and the write-once table's flushed tables, of disjoint key
// ranges, are never rewritten: ≈ 1.00 and 0. Tiering that merged disjoint
// tables too gave ≈ 0.37 rewritten, one log for both tables ≈ 1.04 on
// disk, and a shared run ≈ 1.12 and ≈ 0.49.
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

// BenchmarkWriteStall is what a write call waits for while the memtables
// fill and flush: 1 024 BatchPuts of 16 random 4 KiB values under random
// keys (64 MiB through the log, at default options: the memtable budget
// fills sixteen times, and the tables' key ranges overlap, so tiering
// merges them). It reports maxWrite-ms, the slowest BatchPut, and
// p99Write-ms: ≈ 8–16 and 2.3–3.3, a write waiting only for a flush still
// under way when its own swap is due. While the write call that filled the
// budget flushed every memtable and ran the tier loop itself they were
// 41–46 and 5.8–6.2.
func BenchmarkWriteStall(b *testing.B) {
	const (
		batches  = 1024
		perBatch = 16
		valueLen = 4 << 10
	)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	value := make([]byte, valueLen)
	rng.Read(value)
	var worst, p99 float64
	for n := 0; n < b.N; n++ {
		be, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		took := make([]time.Duration, batches)
		for i := range took {
			ents := make([]engine.Entry, perBatch)
			for j := range ents {
				ents[j] = engine.Entry{Key: fmt.Sprintf("k%08d", rng.Intn(1<<24)), Value: value}
			}
			start := time.Now()
			if err := be.BatchPut(ctx, "t", ents); err != nil {
				b.Fatal(err)
			}
			took[i] = time.Since(start)
		}
		slices.Sort(took)
		worst += took[batches-1].Seconds() * 1e3
		p99 += took[batches*99/100].Seconds() * 1e3
		if err := be.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(batches * perBatch * valueLen)
	b.ReportMetric(worst/float64(b.N), "maxWrite-ms")
	b.ReportMetric(p99/float64(b.N), "p99Write-ms")
}
