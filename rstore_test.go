package rstore_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"testing"

	"rstore"
)

// TestFacadeEndToEnd drives the whole public API surface.
func TestFacadeEndToEnd(t *testing.T) {
	kv, err := rstore.OpenCluster(context.Background(), rstore.ClusterConfig{Nodes: 3, ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := rstore.Open(context.Background(), rstore.Config{
		KV: kv, Partitioner: rstore.BottomUp(0), ChunkCapacity: 4096, SubChunkK: 2, BatchSize: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	v0, err := st.Commit(context.Background(), rstore.NoParent, rstore.Change{Puts: map[rstore.Key][]byte{
		"x": []byte("x0"), "y": []byte("y0"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := st.Commit(context.Background(), v0, rstore.Change{Puts: map[rstore.Key][]byte{"x": []byte("x1")}})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := st.Commit(context.Background(), v1, rstore.Change{Deletes: []rstore.Key{"y"}})
	if err != nil {
		t.Fatal(err)
	}

	recs, stats, err := st.GetVersionAll(context.Background(), v2)
	if err != nil || len(recs) != 1 || stats.Records != 1 {
		t.Fatalf("GetVersion: %d records, %v", len(recs), err)
	}
	if string(recs[0].Value) != "x1" {
		t.Fatalf("v2 x = %q", recs[0].Value)
	}
	if _, _, err := st.GetRecord(context.Background(), "y", v2); !errors.Is(err, rstore.ErrNotFound) {
		t.Fatalf("deleted key: %v", err)
	}
	hist, _, err := st.GetHistoryAll(context.Background(), "x")
	if err != nil || len(hist) != 2 {
		t.Fatalf("history: %d, %v", len(hist), err)
	}
	if err := st.Materialize(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.GetRecord(context.Background(), "x", v0); err != nil {
		t.Fatalf("after materialize: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(context.Background(), v2, rstore.Change{}); !errors.Is(err, rstore.ErrClosed) {
		t.Fatalf("commit after close: %v", err)
	}
}

// Example demonstrates the basic commit/retrieve cycle.
func Example() {
	st, _ := rstore.Open(context.Background(), rstore.Config{})
	v0, _ := st.Commit(context.Background(), rstore.NoParent, rstore.Change{Puts: map[rstore.Key][]byte{
		"patient-1": []byte(`{"age":52}`),
	}})
	v1, _ := st.Commit(context.Background(), v0, rstore.Change{Puts: map[rstore.Key][]byte{
		"patient-1": []byte(`{"age":53}`),
	}})
	rec, _, _ := st.GetRecord(context.Background(), "patient-1", v1)
	old, _, _ := st.GetRecord(context.Background(), "patient-1", v0)
	fmt.Printf("now: %s, then: %s\n", rec.Value, old.Value)
	// Output: now: {"age":53}, then: {"age":52}
}

// ExampleOpenCluster keeps a store on a durable lsm cluster: commit, close
// the store and then the cluster, reopen the cluster and Open the store
// again: the same call reads it back from its data directory.
func ExampleOpenCluster() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "rstore-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Each cluster node keeps its files in dir/node-N.
	cluster := rstore.ClusterConfig{Engine: rstore.EngineLSM, Dir: dir}
	kv, err := rstore.OpenCluster(ctx, cluster)
	if err != nil {
		log.Fatal(err)
	}
	st, err := rstore.Open(ctx, rstore.Config{KV: kv})
	if err != nil {
		log.Fatal(err)
	}
	v0, err := st.Commit(ctx, rstore.NoParent, rstore.Change{Puts: map[rstore.Key][]byte{
		"doc": []byte(`{"rev":0}`),
	}})
	if err != nil {
		log.Fatal(err)
	}
	// A store does not close the cluster it was handed: close both.
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		log.Fatal(err)
	}

	// Later: the same results, read back from the data directory.
	kv, err = rstore.OpenCluster(ctx, cluster)
	if err != nil {
		log.Fatal(err)
	}
	defer kv.Close()
	st, err = rstore.Open(ctx, rstore.Config{KV: kv})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	rec, _, err := st.GetRecord(ctx, "doc", v0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", rec.Value)
	// Output: {"rev":0}
}

// ExampleStore_GetHistory shows record-evolution retrieval.
func ExampleStore_GetHistory() {
	st, _ := rstore.Open(context.Background(), rstore.Config{})
	parent := rstore.NoParent
	for i := 0; i < 3; i++ {
		v, _ := st.Commit(context.Background(), parent, rstore.Change{Puts: map[rstore.Key][]byte{
			"doc": []byte(fmt.Sprintf(`{"rev":%d}`, i)),
		}})
		parent = v
	}
	history, _, _ := st.GetHistoryAll(context.Background(), "doc")
	for _, r := range history {
		fmt.Printf("v%d: %s\n", r.CK.Version, r.Value)
	}
	// Output:
	// v0: {"rev":0}
	// v1: {"rev":1}
	// v2: {"rev":2}
}

// ExampleStore_GetRange shows partial version retrieval.
func ExampleStore_GetRange() {
	st, _ := rstore.Open(context.Background(), rstore.Config{})
	v0, _ := st.Commit(context.Background(), rstore.NoParent, rstore.Change{Puts: map[rstore.Key][]byte{
		"a1": []byte("1"), "a2": []byte("2"), "b1": []byte("3"),
	}})
	recs, _, _ := st.GetRangeAll(context.Background(), rstore.KeyRange("a", "b"), v0)
	for _, r := range recs {
		fmt.Printf("%s=%s\n", r.CK.Key, r.Value)
	}
	// Output:
	// a1=1
	// a2=2
}

// TestFacadeBranchWorkflow exercises the VCS-style surface.
func TestFacadeBranchWorkflow(t *testing.T) {
	st, err := rstore.Open(context.Background(), rstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v0, _ := st.Commit(context.Background(), rstore.NoParent, rstore.Change{Puts: map[rstore.Key][]byte{"d": []byte("0")}})
	if err := st.SetBranch(context.Background(), "main", v0); err != nil {
		t.Fatal(err)
	}
	main, _ := st.Tip("main")
	vExp, _ := st.Commit(context.Background(), main, rstore.Change{Puts: map[rstore.Key][]byte{"d": []byte("exp")}})
	if err := st.SetBranch(context.Background(), "experiment", vExp); err != nil {
		t.Fatal(err)
	}
	// Merge experiment back.
	vm, err := st.CommitMerge(context.Background(), []rstore.VersionID{main, vExp}, rstore.Change{
		Puts: map[rstore.Key][]byte{"d": []byte("exp")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Parents(vm)) != 2 {
		t.Fatal("merge not recorded")
	}
	bs := st.Branches()
	if len(bs) != 2 {
		t.Fatalf("branches: %v", bs)
	}
}
