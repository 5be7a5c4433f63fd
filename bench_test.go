package rstore_test

// Benchmark harness: one testing.B benchmark per paper table/figure (each
// regenerates the artifact at quick scale; run cmd/rstore-bench for readable
// tables and -scale full for heavier datasets), plus micro-benchmarks of the
// engine's hot paths.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig8 -v        # print the regenerated table

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rstore"
	"rstore/internal/bench"
	"rstore/internal/corpus"
	"rstore/internal/engine/lsm"
	"rstore/internal/engine/remote/engined"
	"rstore/internal/kvstore"
	"rstore/internal/partition"
	"rstore/internal/subchunk"
	"rstore/internal/workload"
)

// runExperiment executes one paper artifact per iteration; with -v the
// first iteration's tables are printed.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := bench.Quick()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			for _, t := range tables {
				t.Fprint(benchWriter{b})
			}
		}
	}
}

type benchWriter struct{ b *testing.B }

func (w benchWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

// One benchmark per paper artifact.

func BenchmarkTable1(b *testing.B)         { runExperiment(b, "table1") }
func BenchmarkTableChunkSize(b *testing.B) { runExperiment(b, "table-chunksize") }
func BenchmarkTable2Gen(b *testing.B)      { runExperiment(b, "table2") }
func BenchmarkFig8(b *testing.B)           { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)           { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)          { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)          { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)          { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)          { runExperiment(b, "fig13") }

// --- engine micro-benchmarks ---

func benchCorpus(b *testing.B, versions, records int) *corpus.Corpus {
	b.Helper()
	c, err := workload.Generate(workload.Spec{
		Name: "bench", Versions: versions, AvgDepth: float64(versions) / 4,
		RecordsPerVersion: records, UpdatePct: 0.10,
		Update: workload.RandomUpdate, RecordSize: 256, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkPartition measures each algorithm's partitioning throughput, and
// Bottom-Up's and DepthFirst's on dataset L at full size in 1 MiB chunks, the
// instance benchmark/'s bulk load partitions (L/…, on 2 vCPUs: Bottom-Up
// ≈ 37–50 ms since it works in delta time, ≈ 95–125 ms while every version
// intersected and copied its whole π collection; DepthFirst ≈ 5–10 ms).
func BenchmarkPartition(b *testing.B) {
	c := benchCorpus(b, 200, 500)
	in, err := partition.NewInputFromCorpus(c, 16<<10)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, in *partition.Input, algo partition.Algorithm) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := algo.Partition(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, algo := range []partition.Algorithm{
		partition.BottomUp{}, partition.BottomUp{Beta: 20},
		partition.Shingle{Seed: 1}, partition.DepthFirst{}, partition.BreadthFirst{},
	} {
		name := algo.Name()
		if bu, ok := algo.(partition.BottomUp); ok && bu.Beta > 0 {
			name = fmt.Sprintf("%s-beta%d", name, bu.Beta)
		}
		run(name, in, algo)
	}
	l, err := workload.Generate(specL)
	if err != nil {
		b.Fatal(err)
	}
	if in, err = partition.NewInputFromCorpus(l, 1<<20); err != nil {
		b.Fatal(err)
	}
	for _, algo := range []partition.Algorithm{partition.BottomUp{}, partition.DepthFirst{}} {
		run("L/"+algo.Name(), in, algo)
	}
}

// BenchmarkSubchunkBuild measures Algorithm 5 + tree transformation.
func BenchmarkSubchunkBuild(b *testing.B) {
	c := benchCorpus(b, 100, 300)
	for _, k := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := subchunk.Build(c, k, 16<<10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCommit measures online ingest: a chain of one-key commits at the
// tip of a placed base version of 1 k and 100 k keys, each a delta store
// write, every 32nd closing a batch that a flush places. A commit resolves
// only the key it touches, so its cost does not grow with the base version.
// The import/… cases are the root commit ingest imports, 3 000 records of
// 512 B on a fresh store, one durable delta entry of ≈ 1.5 MB: B/op counts
// every copy of it the commit path makes.
// The pending=… cases commit 150 keys of 512 B at the end of a path of that
// many unplaced 150-key commits over a placed 3 000-key version, as ingest's
// batches do: a commit folds only its own keys' records out of the path, so
// pending=15 costs ≈ 1.3× what pending=0 does on 2 vCPUs (≈ 3× while it
// hashed every composite key the path adds or deletes).
func BenchmarkCommit(b *testing.B) {
	for _, depth := range []int{0, 15} {
		b.Run(fmt.Sprintf("pending=%d", depth), func(b *testing.B) {
			ctx := context.Background()
			st, err := rstore.Open(ctx, rstore.Config{ChunkCapacity: 64 << 10, BatchSize: 1 << 20})
			if err != nil {
				b.Fatal(err)
			}
			const keys, changes = 3000, 150
			change := func(i int) rstore.Change {
				ch := rstore.Change{Puts: make(map[rstore.Key][]byte, changes)}
				for j := range changes {
					ch.Puts[rstore.Key(fmt.Sprintf("k%06d", (i*changes+j)%keys))] = []byte(fmt.Sprintf("%0512d", i))
				}
				return ch
			}
			root := rstore.Change{Puts: make(map[rstore.Key][]byte, keys)}
			for i := range keys {
				root.Puts[rstore.Key(fmt.Sprintf("k%06d", i))] = []byte(fmt.Sprintf("%0512d", i))
			}
			tip, err := st.Commit(ctx, rstore.NoParent, root)
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Flush(ctx); err != nil {
				b.Fatal(err)
			}
			for d := range depth {
				if tip, err = st.Commit(ctx, tip, change(d)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ch := change(depth + i)
				b.StartTimer()
				if _, err := st.Commit(ctx, tip, ch); err != nil { // a sibling of the last: the path stays depth long
					b.Fatal(err)
				}
			}
		})
	}
	for _, stack := range benchStacks {
		b.Run("import/"+stack.name, func(b *testing.B) {
			ctx := context.Background()
			root := rstore.Change{Puts: make(map[rstore.Key][]byte, 3000)}
			for i := range 3000 {
				root.Puts[rstore.Key(fmt.Sprintf("k%08d", i))] = []byte(fmt.Sprintf("%0512d", i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg, stop := stack.start(b)
				kv, err := kvstore.Open(ctx, cfg)
				if err != nil {
					b.Fatal(err)
				}
				st, err := rstore.Open(ctx, rstore.Config{KV: kv, BatchSize: 1 << 20})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := st.Commit(ctx, rstore.NoParent, root); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				// Dropped unflushed: a flush would place the import.
				if err := kv.Close(); err != nil {
					b.Fatal(err)
				}
				stop()
			}
		})
	}
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			ctx := context.Background()
			st, err := rstore.Open(ctx, rstore.Config{ChunkCapacity: 64 << 10, BatchSize: 32})
			if err != nil {
				b.Fatal(err)
			}
			root := rstore.Change{Puts: make(map[rstore.Key][]byte, n)}
			for i := range n {
				root.Puts[rstore.Key(fmt.Sprintf("k%06d", i))] = []byte(fmt.Sprintf(`{"i":%d}`, i))
			}
			parent, err := st.Commit(ctx, rstore.NoParent, root)
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Flush(ctx); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch := rstore.Change{Puts: map[rstore.Key][]byte{
					rstore.Key(fmt.Sprintf("k%06d", i%n)): []byte(fmt.Sprintf(`{"i":%d}`, i)),
				}}
				if parent, err = st.Commit(ctx, parent, ch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiff diffs two one-key sibling commits over a flushed base of 1 k
// and 100 k keys: a diff composes the deltas on the path between the two, so
// ns/op and B/op barely move from 1 k to 100 k (2.5 ms and 3.2 MB per diff at
// 100 k while it built both versions' member sets).
func BenchmarkDiff(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			ctx := context.Background()
			st, err := rstore.Open(ctx, rstore.Config{ChunkCapacity: 64 << 10, BatchSize: 32})
			if err != nil {
				b.Fatal(err)
			}
			root := rstore.Change{Puts: make(map[rstore.Key][]byte, n)}
			for i := range n {
				root.Puts[rstore.Key(fmt.Sprintf("k%06d", i))] = []byte(fmt.Sprintf(`{"i":%d}`, i))
			}
			base, err := st.Commit(ctx, rstore.NoParent, root)
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Flush(ctx); err != nil {
				b.Fatal(err)
			}
			var sib [2]rstore.VersionID
			for j := range sib {
				ch := rstore.Change{Puts: map[rstore.Key][]byte{rstore.Key(fmt.Sprintf("k%06d", j)): []byte("{}")}}
				if sib[j], err = st.Commit(ctx, base, ch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := st.Diff(sib[0], sib[1])
				if err != nil || len(d.Added) != 2 || len(d.Removed) != 2 {
					b.Fatalf("diff: %+v, %v", d, err)
				}
			}
		})
	}
}

// BenchmarkGetVersion / BenchmarkGetRecord / BenchmarkGetHistory measure
// the three query paths on a materialized store.
func queryBenchStore(b *testing.B) (*rstore.Store, *corpus.Corpus) {
	b.Helper()
	c := benchCorpus(b, 150, 400)
	st, err := rstore.Open(context.Background(), rstore.Config{ChunkCapacity: 16 << 10})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.BulkLoad(context.Background(), c); err != nil {
		b.Fatal(err)
	}
	return st, c
}

func BenchmarkGetVersion(b *testing.B) {
	st, c := queryBenchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.GetVersionAll(context.Background(), rstore.VersionID(i%c.NumVersions())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetRecord(b *testing.B) {
	st, c := queryBenchStore(b)
	keys := c.Keys()
	last := rstore.VersionID(c.NumVersions() - 1)
	members, err := c.Members(last)
	if err != nil {
		b.Fatal(err)
	}
	liveKeys := make([]rstore.Key, 0, len(members))
	for _, id := range members {
		liveKeys = append(liveKeys, c.Record(id).CK.Key)
	}
	_ = keys
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.GetRecord(context.Background(), liveKeys[i%len(liveKeys)], last); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetHistory(b *testing.B) {
	st, c := queryBenchStore(b)
	keys := c.Keys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.GetHistoryAll(context.Background(), keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlushBatch measures the flush that closes the k-th batch of a
// growing chain: 16 versions per batch, each rewriting 4 of the root's 256
// records, so every version's span reaches back into chunks of all earlier
// batches — over the in-process memory engine and the benchmark's stack shape
// (benchStacks). A flush should cost what its batch adds, not what the store
// holds: kv-put-B/flush, kv-read-B/flush and ns/op stay flat as k grows, and
// kv-writes/flush — the kvstore write calls of one flush: chunk group,
// placement record, root, write-store drain — is 4 whatever the batch holds.
func BenchmarkFlushBatch(b *testing.B) {
	ctx := context.Background()
	for _, stack := range benchStacks {
		for _, k := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/k=%d", stack.name, k), func(b *testing.B) {
				b.ReportAllocs()
				var put, read, writes int64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					kv, err := kvstore.Open(ctx, stack.open(b))
					if err != nil {
						b.Fatal(err)
					}
					st, err := rstore.Open(ctx, rstore.Config{KV: kv, ChunkCapacity: 8 << 10})
					if err != nil {
						b.Fatal(err)
					}
					parent := rstore.NoParent
					for v := 0; v < 16*k; v++ {
						ch := rstore.Change{Puts: map[rstore.Key][]byte{}}
						rewrites := 4
						if v == 0 {
							rewrites = 256
						}
						for r := 0; r < rewrites; r++ {
							ch.Puts[rstore.Key(fmt.Sprintf("k%03d", (4*v+r)%256))] = []byte(fmt.Sprintf(`{"rev":%d,"pad":"%0128d"}`, v, r))
						}
						if parent, err = st.Commit(ctx, parent, ch); err != nil {
							b.Fatal(err)
						}
						if v%16 == 15 && v != 16*k-1 {
							if err := st.Flush(ctx); err != nil {
								b.Fatal(err)
							}
						}
					}
					before := kv.Stats(ctx)
					b.StartTimer()
					if err := st.Flush(ctx); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					after := kv.Stats(ctx)
					put += after.BytesPut - before.BytesPut
					read += after.BytesRead - before.BytesRead
					writes += after.WriteCalls - before.WriteCalls
					if err := errors.Join(st.Close(), kv.Close()); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(put)/float64(b.N), "kv-put-B/flush")
				b.ReportMetric(float64(read)/float64(b.N), "kv-read-B/flush")
				b.ReportMetric(float64(writes)/float64(b.N), "kv-writes/flush")
			})
		}
	}
}

// BenchmarkBulkLoad measures BulkLoad of a ≈ 16 MB tree-shaped corpus — the
// set-up of benchmark/'s read workloads, at a quarter of dataset L — over the
// in-process memory engine and over the benchmark's stack shape: three lsm
// nodes behind engined, replication factor 2. MB/s is user payload per
// wall-clock second; B/op is what one load allocates, all layers and all
// three nodes included, so a whole-corpus copy anywhere on the write path
// shows as a multiple of the corpus in B/op. storedB/userB is what the cluster
// holds once loaded (kvstore.Stats.BytesStored: chunk segments, placement log
// and root, every replica) per byte of record values — the benchmark's
// stored_bytes_per_user_byte, without the whole-stack run.
func BenchmarkBulkLoad(b *testing.B) {
	ctx := context.Background()
	spec := workload.Spec{
		Name: "bulk", Versions: 200, AvgDepth: 20, RecordsPerVersion: 5000,
		UpdatePct: 0.06, Update: workload.RandomUpdate, RecordSize: 256, Seed: 1,
	}
	for _, stack := range benchStacks {
		b.Run(stack.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := workload.Generate(spec) // BulkLoad takes ownership: one corpus per load
				if err != nil {
					b.Fatal(err)
				}
				kv, err := kvstore.Open(ctx, stack.open(b))
				if err != nil {
					b.Fatal(err)
				}
				st, err := rstore.Open(ctx, rstore.Config{KV: kv})
				if err != nil {
					b.Fatal(err)
				}
				user := c.TotalBytes()
				b.SetBytes(user)
				b.StartTimer()
				if err := st.BulkLoad(ctx, c); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(float64(kv.Stats(ctx).BytesStored)/float64(user), "storedB/userB")
				if err := errors.Join(st.Close(), kv.Close()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchStacks are the two clusters BenchmarkFlushBatch, BenchmarkBulkLoad,
// BenchmarkLoad, BenchmarkCommit's import and the read benchmarks run over:
// the in-process memory engine, and the benchmark's stack shape — three lsm
// nodes behind engined, replication factor 2.
var benchStacks = []benchStack{
	{"memory", func(*testing.B) (kvstore.Config, func()) { return kvstore.Config{}, func() {} }},
	{"remote-lsm", func(b *testing.B) (kvstore.Config, func()) {
		dir, err := os.MkdirTemp("", "bench-stack-")
		if err != nil {
			b.Fatal(err)
		}
		var stops []func()
		stop := func() {
			for _, s := range stops {
				s()
			}
			os.RemoveAll(dir)
		}
		addrs := make([]string, 3)
		for i := range addrs {
			be, err := lsm.Open(filepath.Join(dir, fmt.Sprintf("node-%d", i)), lsm.Options{})
			if err != nil {
				stop()
				b.Fatal(err)
			}
			node, err := engined.Start("127.0.0.1:0", be)
			if err != nil {
				be.Close()
				stop()
				b.Fatal(err)
			}
			stops = append(stops, func() {
				node.Close()
				be.Close()
			})
			addrs[i] = node.Addr().String()
		}
		return kvstore.Config{Engine: kvstore.EngineRemote, NodeAddrs: addrs, ReplicationFactor: 2}, stop
	}},
}

// benchStack is a cluster a benchmark runs over: start brings one up and
// returns its config and the stop that tears it down.
type benchStack struct {
	name  string
	start func(b *testing.B) (kvstore.Config, func())
}

// open brings up a cluster that lives until b's run ends.
func (s benchStack) open(b *testing.B) kvstore.Config {
	cfg, stop := s.start(b)
	b.Cleanup(stop)
	return cfg
}

// specL is the shape and size of benchmark/'s dataset L: a 200-version tree,
// ≈ 64 MB of user bytes, ≈ 490 k tree-edge delta entries.
var specL = workload.Spec{
	Name: "L", Versions: 200, AvgDepth: 20, RecordsPerVersion: 20000,
	UpdatePct: 0.06, Update: workload.RandomUpdate, RecordSize: 256, Seed: 2018,
}

// BenchmarkLoad measures reopening a bulk-loaded store the shape and size of
// benchmark/'s dataset L (a 200-version tree, ≈ 64 MB of user bytes, ≈ 490 k
// tree-edge delta entries): root, chunk scan and decode, placement-log fold.
// B/op and allocs/op are what one Open allocates on top of the stored bytes
// it must read; MB/s is user payload per wall-clock second.
func BenchmarkLoad(b *testing.B) {
	ctx := context.Background()
	for _, stack := range benchStacks {
		b.Run(stack.name, func(b *testing.B) {
			c, err := workload.Generate(specL)
			if err != nil {
				b.Fatal(err)
			}
			user := c.TotalBytes()
			kv, err := kvstore.Open(ctx, stack.open(b))
			if err != nil {
				b.Fatal(err)
			}
			defer kv.Close()
			st, err := rstore.Open(ctx, rstore.Config{KV: kv})
			if err != nil {
				b.Fatal(err)
			}
			if err := st.BulkLoad(ctx, c); err != nil {
				b.Fatal(err)
			}
			versions := st.NumVersions()
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(user)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				re, err := rstore.Open(ctx, rstore.Config{KV: kv})
				if err != nil {
					b.Fatal(err)
				}
				if re.NumVersions() != versions {
					b.Fatalf("reloaded %d versions, wrote %d", re.NumVersions(), versions)
				}
				// Not closed: Close would close nothing this benchmark owns
				// (the cluster is shared) and nothing is pending.
			}
		})
	}
}

// loadedL bulk-loads a store the shape and size of benchmark/'s dataset L
// (BenchmarkLoad's) over stack, for the read benchmarks below.
func loadedL(b *testing.B, open func(b *testing.B) kvstore.Config) (*rstore.Store, *corpus.Corpus) {
	b.Helper()
	ctx := context.Background()
	c, err := workload.Generate(specL)
	if err != nil {
		b.Fatal(err)
	}
	kv, err := kvstore.Open(ctx, open(b))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { kv.Close() })
	st, err := rstore.Open(ctx, rstore.Config{KV: kv})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.BulkLoad(ctx, c); err != nil {
		b.Fatal(err)
	}
	return st, c
}

// BenchmarkPointRead, BenchmarkHistory and BenchmarkRangeRead measure the
// three key-addressed reads on dataset L — GetRecord of a live key of a
// version, GetHistory of a key, GetRange of a tenth of a version's key space,
// keys and versions striding through the dataset — over both stacks.
// fetchedB/op is QueryStats.BytesRead, what the read pulled out of the KVS:
// with a 1 MiB chunk as the unit of transfer a point read fetched 2.6 MiB for
// one 256 B record; with 64 KiB segments it fetches the one segment the
// record's slot falls in. B/op is what the whole stack allocates per read.
func BenchmarkPointRead(b *testing.B) {
	for _, stack := range benchStacks {
		b.Run(stack.name, func(b *testing.B) {
			st, c := loadedL(b, stack.open)
			live := make([]rstore.Key, c.NumVersions()) // one live key per version
			for v := range live {
				members, err := c.Members(rstore.VersionID(v))
				if err != nil {
					b.Fatal(err)
				}
				live[v] = c.Record(members[v*7919%len(members)]).CK.Key
			}
			benchReads(b, func(i int) (rstore.QueryStats, error) {
				v := i * 37 % len(live)
				_, stats, err := st.GetRecord(context.Background(), live[v], rstore.VersionID(v))
				return stats, err
			})
		})
	}
}

func BenchmarkHistory(b *testing.B) {
	for _, stack := range benchStacks {
		b.Run(stack.name, func(b *testing.B) {
			st, c := loadedL(b, stack.open)
			benchReads(b, func(i int) (rstore.QueryStats, error) {
				_, stats, err := st.GetHistoryAll(context.Background(), c.Keys()[i*7919%c.NumKeys()])
				return stats, err
			})
		})
	}
}

func BenchmarkRangeRead(b *testing.B) {
	for _, stack := range benchStacks {
		b.Run(stack.name, func(b *testing.B) {
			st, c := loadedL(b, stack.open)
			keys := c.NumKeys() // workload.KeyFor(i), i < keys
			benchReads(b, func(i int) (rstore.QueryStats, error) {
				lo := i * 7919 % (keys * 9 / 10)
				r := rstore.KeyRange(workload.KeyFor(lo), workload.KeyFor(lo+keys/10))
				_, stats, err := st.GetRangeAll(context.Background(), r, rstore.VersionID(i*37%c.NumVersions()))
				return stats, err
			})
		})
	}
}

// BenchmarkVersionRead is the read that must not pay for the other three:
// GetVersion of whole versions of dataset L fetches every segment of the
// version's chunks — the bytes a chunk-at-a-time read fetched, under sixteen
// times the keys.
func BenchmarkVersionRead(b *testing.B) {
	for _, stack := range benchStacks {
		b.Run(stack.name, func(b *testing.B) {
			st, c := loadedL(b, stack.open)
			benchReads(b, func(i int) (rstore.QueryStats, error) {
				_, stats, err := st.GetVersionAll(context.Background(), rstore.VersionID(i*37%c.NumVersions()))
				return stats, err
			})
		})
	}
}

// benchReads times read(0), read(1), … and reports the mean bytes they fetched.
func benchReads(b *testing.B, read func(i int) (rstore.QueryStats, error)) {
	b.Helper()
	var fetched int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := read(i)
		if err != nil {
			b.Fatal(err)
		}
		fetched += stats.BytesRead
	}
	b.ReportMetric(float64(fetched)/float64(b.N), "fetchedB/op")
}
