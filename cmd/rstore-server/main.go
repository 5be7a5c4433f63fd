// Command rstore-server runs the HTTP application server (paper §2.4) over
// a cluster: in process (volatile memory nodes, or lsm nodes under one data
// directory) or one rstore-node daemon per address.
//
// Usage:
//
//	rstore-server -addr :8080 -nodes 4 -rf 2
//	rstore-server -addr :8080 -backend lsm -data /var/lib/rstore
//	rstore-server -addr :8080 -rf 2 -backend remote -node-addrs host1:7420,host2:7420,host3:7420
//
// The dead bytes that overwritten document versions leave behind are the
// lsm engine's to reclaim, on every node, locally or behind a daemon; the
// cluster's live ratio (live bytes / disk bytes) is on /stats.
//
// With -backend lsm every node's data lives under the -data directory and
// survives restarts: the server replays it on boot and reopens the store if
// one was previously committed there. With -backend remote the cluster is
// one rstore-node daemon per -node-addrs entry (the address list fixes the
// node count; -nodes is ignored) and the store is likewise reopened from
// the nodes' contents on boot. A -backend memory store lives and dies with
// the process.
// At -rf > 1 replicas converge by read repair and hinted handoff, which
// nothing tunes; -anti-entropy-interval adds a background hash-tree sync.
//
// API (JSON; the set-returning queries stream NDJSON — one
// {"record":...} line per record as chunks arrive, a {"stats":...}
// trailer, mid-stream failures as a terminating {"error":...} line —
// and honor request cancellation end to end):
//
//	POST /commit                       {"parent":-1,"puts":{"k":"<base64>"},"branch":"main"}
//	GET  /version/{id|branch}          full version retrieval (NDJSON stream)
//	GET  /version/{id}/record/{key}    point retrieval
//	GET  /version/{id}/range?lo=&hi=   partial version retrieval (NDJSON stream;
//	                                   omit hi to read to the top of the keyspace)
//	GET  /history/{key}                record evolution (NDJSON stream)
//	GET  /branches                     branch tips (+ per-branch errors)
//	PUT  /branch/{name}                {"version":3}
//	POST /flush                        force online partitioning
//	GET  /stats                        store statistics
//
// SIGINT/SIGTERM drain in-flight requests via http.Server.Shutdown
// before closing the store. -debug-addr host:port, off by default, serves
// net/http/pprof there and nothing else.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rstore"
	"rstore/internal/obs"
	"rstore/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		nodes     = flag.Int("nodes", 1, "cluster nodes")
		rf        = flag.Int("rf", 1, "replication factor")
		batch     = flag.Int("batch", 16, "online partitioning batch size")
		chunkKB   = flag.Int("chunk-kb", 1024, "chunk capacity in KiB")
		backend   = flag.String("backend", "memory", "storage backend: memory|lsm|remote")
		dataDir   = flag.String("data", "rstore-data", "data directory for -backend lsm")
		nodeAddrs = flag.String("node-addrs", "", "comma-separated rstore-node addresses for -backend remote")
		aeEvery   = flag.Duration("anti-entropy-interval", 0, "background hash-tree replica sync cadence (0 = off; needs -rf > 1)")
		debug     = flag.String("debug-addr", "", "serve net/http/pprof on this address (off when empty)")
	)
	flag.Parse()
	// First, so that a profile can watch the open too.
	if *debug != "" {
		dbg, err := obs.StartDebug(*debug)
		if err != nil {
			log.Fatalf("rstore-server: %v", err)
		}
		defer dbg.Close()
		log.Printf("rstore-server: pprof on %s", dbg.Addr)
	}

	cluster := rstore.ClusterConfig{
		Nodes: *nodes, ReplicationFactor: *rf,
		Engine: *backend, Dir: *dataDir,
		AntiEntropyInterval: *aeEvery,
	}
	if *aeEvery > 0 && *rf <= 1 {
		log.Printf("rstore-server: -anti-entropy-interval needs -rf > 1; ignored")
	}
	if *backend == rstore.EngineRemote {
		cluster.NodeAddrs = rstore.SplitNodeAddrs(*nodeAddrs)
		if len(cluster.NodeAddrs) == 0 {
			log.Fatal("-backend remote needs -node-addrs host:port[,host:port...]")
		}
		cluster.Nodes = 0 // the address list is the cluster shape
	}
	ctx := context.Background()
	kv, err := rstore.OpenCluster(ctx, cluster)
	if err != nil {
		log.Fatal(err)
	}
	cfg := rstore.Config{KV: kv, BatchSize: *batch, ChunkCapacity: *chunkKB << 10}

	// Durable backends hold the store in the backend itself (data
	// directory or remote nodes): Open reopens what is committed there.
	st, err := rstore.Open(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *backend != rstore.EngineMemory {
		where := *dataDir
		if *backend == rstore.EngineRemote {
			where = "nodes " + strings.Join(cluster.NodeAddrs, ",")
		}
		log.Printf("reopened %d versions from %s", st.NumVersions(), where)
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: server.New(st),
		// A peer that opens a connection and never finishes its headers
		// must not pin a handler goroutine forever.
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("rstore-server listening on %s (nodes=%d rf=%d batch=%d backend=%s)",
			*addr, kv.Nodes(), *rf, *batch, *backend)
		errc <- srv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case s := <-sig:
		log.Printf("rstore-server: %v: draining", s)
	}
	// Drain in-flight requests (streaming queries included) before closing
	// the store; stragglers are cut off at the deadline.
	shutdownCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// Shutdown stops listeners and idle connections but leaves
			// active ones running; sever them hard, or a streaming handler
			// still holding the store's read lock would block the store
			// close below forever.
			log.Printf("rstore-server: drain deadline passed, severing stragglers")
			srv.Close()
		} else {
			log.Printf("rstore-server: shutdown: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		log.Fatalf("rstore-server: close store: %v", err)
	}
	log.Printf("rstore-server: stopped")
}
