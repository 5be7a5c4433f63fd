// Replica: the distributed deployment story — a writable application server
// and a read-only replica fronting the same cluster (paper §2.4: "Multiple
// copies of AS could co-exist"), accessed over the HTTP JSON API with the
// typed Go client.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http/httptest"

	"rstore"
	"rstore/internal/client"
	"rstore/internal/server"
)

func main() {
	ctx := context.Background()
	// One shared 4-node cluster with replication.
	kv, err := rstore.OpenCluster(ctx, rstore.ClusterConfig{Nodes: 4, ReplicationFactor: 2})
	if err != nil {
		log.Fatal(err)
	}

	// Primary application server (writable).
	primary, err := rstore.Open(ctx, rstore.Config{KV: kv, BatchSize: 4})
	if err != nil {
		log.Fatal(err)
	}
	primarySrv := httptest.NewServer(server.New(primary))
	defer primarySrv.Close()
	writer := client.New(primarySrv.URL, nil)

	// Ingest through the API.
	v, err := writer.Commit(ctx, -1, map[string][]byte{
		"sensor-1": []byte(`{"temp":21.5}`),
		"sensor-2": []byte(`{"temp":19.8}`),
	}, nil, "main")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		v, err = writer.Commit(ctx, int64(v), map[string][]byte{
			"sensor-1": []byte(fmt.Sprintf(`{"temp":%0.1f}`, 21.5+float64(i))),
		}, nil, "main")
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := writer.Flush(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primary ingested %d versions\n", v+1)

	// Read-only replica over the same cluster: loads placement state from
	// the KVS, serves every query, rejects writes.
	replicaStore, err := rstore.Open(ctx, rstore.Config{KV: kv, ReadOnly: true})
	if err != nil {
		log.Fatal(err)
	}
	replicaSrv := httptest.NewServer(server.New(replicaStore))
	defer replicaSrv.Close()
	reader := client.New(replicaSrv.URL, nil)

	// Stream the tip: the client decodes NDJSON records as the replica
	// fetches chunks; the loop could stop (or ctx cancel) to abort the
	// remaining fetches mid-flight.
	cur, err := reader.GetVersion(ctx, "main")
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	for _, err := range cur.Records() {
		if err != nil {
			log.Fatal(err)
		}
		n++
	}
	fmt.Printf("replica streamed tip: %d records, span=%d, %d requests, %d bytes fetched\n",
		n, cur.Stats().Span, cur.Stats().Requests, cur.Stats().BytesRead)

	history, _, err := reader.GetHistoryAll(ctx, "sensor-1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica served history of sensor-1: %d revisions\n", len(history))

	// Writes against the replica fail loudly, over the wire and directly.
	_, err = reader.Commit(ctx, int64(v), map[string][]byte{"x": []byte("1")}, nil, "")
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		fmt.Printf("replica rejected write over HTTP: status %d\n", apiErr.Status)
	}
	if _, err := replicaStore.Commit(ctx, rstore.VersionID(v), rstore.Change{}); errors.Is(err, rstore.ErrReadOnly) {
		fmt.Println("replica rejected direct write: ErrReadOnly")
	}
}
