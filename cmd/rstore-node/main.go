// Command rstore-node runs one storage node: a durable lsm backend (or,
// for tests, a volatile -backend memory) served over TCP with the engine
// wire protocol, so a cluster of real machines can replace the
// in-process simulator. Point a cluster at a set of nodes with `-backend
// remote -node-addrs host1:7420,host2:7420,...` on cmd/rstore,
// cmd/rstore-server, or cmd/rstore-bench (or
// rstore.ClusterConfig{Engine: rstore.EngineRemote, NodeAddrs: ...} from
// the library).
//
// Usage:
//
//	rstore-node -addr :7420 -data /var/lib/rstore-node
//	rstore-node -addr :7420 -data /var/lib/rstore-node -compact-interval 5m -compact-live-ratio 0.6
//
// With -compact-interval set, the node periodically checks its storage's
// live ratio (live bytes / disk bytes) and runs a compaction — a
// crash-safe merge of only-live records into fresh files — whenever the
// ratio falls below -compact-live-ratio. Clients can also trigger a
// compaction on demand through the wire protocol (kvstore.Store.Compact).
// A -backend memory node (volatile, for tests) does not compact; the
// mismatch with -compact-interval is logged once at startup rather than
// every tick.
//
// Besides data tables, a node may host cluster bookkeeping written by its
// clients through the same engine seam: the !cluster ring-position pin and
// the !hints table, where writes missed by a down peer are parked durably
// until the peer returns (replication repair's hinted handoff). Both are
// node-local.
//
// The data directory is flock-ed against concurrent daemons and replayed
// on start (torn tails truncated). SIGINT/SIGTERM shut down gracefully:
// stop accepting, drain in-flight requests (severing stragglers after a
// grace period), then sync and close the backend. Writes are durable per
// batch regardless — a killed node loses only what it never acknowledged.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote/engined"
)

func main() {
	var (
		addr         = flag.String("addr", ":7420", "listen address")
		backend      = flag.String("backend", "lsm", "storage backend: lsm|memory")
		dataDir      = flag.String("data", "", "data directory (required for lsm)")
		compactEvery = flag.Duration("compact-interval", 0, "check the live ratio and compact at this cadence (0 = only on client demand)")
		compactRatio = flag.Float64("compact-live-ratio", 0.6, "compact when live bytes / disk bytes falls below this (with -compact-interval)")
		aeEvery      = flag.Duration("anti-entropy-interval", 0, "pre-compute hash-tree digests at this cadence so client anti-entropy syncs answer from warm state (0 = compute on demand)")
	)
	flag.Parse()

	var be engine.Backend
	var err error
	where := *dataDir
	switch *backend {
	case "lsm":
		if *dataDir == "" {
			log.Fatalf("rstore-node: -backend lsm requires -data")
		}
		be, err = lsm.Open(*dataDir, lsm.Options{})
	case "memory":
		be, where = memory.New(), "memory (volatile)"
	default:
		log.Fatalf("rstore-node: unknown -backend %q (want lsm or memory)", *backend)
	}
	if err != nil {
		log.Fatalf("rstore-node: open %s: %v", *dataDir, err)
	}
	srv, err := engined.Start(*addr, be)
	if err != nil {
		be.Close()
		log.Fatalf("rstore-node: %v", err)
	}
	log.Printf("rstore-node serving %s on %s (%d bytes resident)",
		where, srv.Addr(), be.BytesStored())

	// Background compaction: live-ratio-triggered so a write-once workload
	// never pays a rewrite, while an overwrite-heavy one converges back to
	// roughly its live volume every interval. A backend without compaction
	// support is reported once here, not on every tick.
	compactCtx, stopCompact := context.WithCancel(context.Background())
	var compactDone chan struct{}
	if c, ok := be.(engine.Compactor); !ok {
		if *compactEvery > 0 {
			log.Printf("rstore-node: -backend %s does not support compaction (%v); -compact-interval ignored",
				*backend, engine.ErrNoCompaction)
		}
	} else if *compactEvery > 0 {
		compactDone = make(chan struct{})
		go func() {
			defer close(compactDone)
			t := time.NewTicker(*compactEvery)
			defer t.Stop()
			for {
				select {
				case <-compactCtx.Done():
					return
				case <-t.C:
				}
				st, err := c.CompactionStats(compactCtx)
				if err != nil || st.LiveRatio() >= *compactRatio {
					continue
				}
				before := st.DiskBytes
				st, err = c.Compact(compactCtx)
				if err != nil {
					log.Printf("rstore-node: compact: %v", err)
					continue
				}
				log.Printf("rstore-node: compacted %s: %d -> %d disk bytes (live ratio %.2f)",
					where, before, st.DiskBytes, st.LiveRatio())
			}
		}()
	}

	// Hash-tree warm loop: cluster clients running anti-entropy
	// (kvstore RepairOptions.AntiEntropyInterval) fetch a digest of every
	// table each sync round. Digesting on demand makes the client's tick
	// pay a full table sweep; digesting here keeps the backend's memoized
	// digest (the LSM engine caches per logical generation) warm so those
	// requests answer from cache. Backends that recompute per call gain
	// nothing, and backends without hashing are reported once at startup.
	aeCtx, stopAE := context.WithCancel(context.Background())
	var aeDone chan struct{}
	if hr, ok := be.(engine.HashRanger); !ok {
		if *aeEvery > 0 {
			log.Printf("rstore-node: -backend %s does not support hash trees (%v); -anti-entropy-interval ignored",
				*backend, engine.ErrNoHashRange)
		}
	} else if *aeEvery > 0 {
		aeDone = make(chan struct{})
		go func() {
			defer close(aeDone)
			t := time.NewTicker(*aeEvery)
			defer t.Stop()
			for {
				select {
				case <-aeCtx.Done():
					return
				case <-t.C:
				}
				tables, err := be.Tables(aeCtx)
				if err != nil {
					continue
				}
				for _, table := range tables {
					if _, err := hr.HashTree(aeCtx, table, engine.DefaultHashFanout); err != nil {
						if aeCtx.Err() != nil {
							return
						}
						log.Printf("rstore-node: hash tree %s: %v", table, err)
						break
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("rstore-node draining")
	stopCompact()
	if compactDone != nil {
		<-compactDone
	}
	stopAE()
	if aeDone != nil {
		<-aeDone
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("rstore-node: shutdown: %v", err)
	}
	if err := be.Close(); err != nil {
		log.Fatalf("rstore-node: close %s: %v", where, err)
	}
	log.Printf("rstore-node stopped")
}
