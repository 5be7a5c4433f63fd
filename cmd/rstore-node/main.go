// Command rstore-node runs one storage node: a durable lsm backend served
// over TCP with the engine wire protocol, so a cluster of real machines can
// replace the in-process simulator. Point a cluster at a set of nodes with
// `-backend remote -node-addrs host1:7420,host2:7420,...` on cmd/rstore or
// cmd/rstore-server (or rstore.ClusterConfig{Engine: rstore.EngineRemote,
// NodeAddrs: ...} from the library).
//
// Usage:
//
//	rstore-node -addr :7420 -data /var/lib/rstore-node
//
// -debug-addr host:port, off by default, serves net/http/pprof there and
// nothing else.
//
// The node runs no background loop of its own: the lsm engine reclaims its
// dead bytes on the write calls that flush (a run less than half live is
// merged into one table), and it memoises each table's hash-tree digest
// for the anti-entropy exchanges its clients start.
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

	"rstore/internal/engine/lsm"
	"rstore/internal/engine/remote/engined"
	"rstore/internal/obs"
)

func main() {
	var (
		addr    = flag.String("addr", ":7420", "listen address")
		dataDir = flag.String("data", "", "data directory (required)")
		debug   = flag.String("debug-addr", "", "serve net/http/pprof on this address (off when empty)")
	)
	flag.Parse()
	// First, so that a profile can watch the open too.
	if *debug != "" {
		dbg, err := obs.StartDebug(*debug)
		if err != nil {
			log.Fatalf("rstore-node: %v", err)
		}
		defer dbg.Close()
		log.Printf("rstore-node: pprof on %s", dbg.Addr)
	}

	if *dataDir == "" {
		log.Fatalf("rstore-node: -data is required")
	}
	be, err := lsm.Open(*dataDir, lsm.Options{})
	if err != nil {
		log.Fatalf("rstore-node: open %s: %v", *dataDir, err)
	}
	srv, err := engined.Start(*addr, be)
	if err != nil {
		be.Close()
		log.Fatalf("rstore-node: %v", err)
	}
	log.Printf("rstore-node serving %s on %s (%d bytes resident)",
		*dataDir, srv.Addr(), be.BytesStored())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("rstore-node draining")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("rstore-node: shutdown: %v", err)
	}
	if err := be.Close(); err != nil {
		log.Fatalf("rstore-node: close %s: %v", *dataDir, err)
	}
	log.Printf("rstore-node stopped")
}
