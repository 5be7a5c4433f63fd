// Tuning: how RStore's knobs — partitioning algorithm, chunk capacity, and
// sub-chunk size k — trade storage against query span on one workload
// (paper §2.4: "simple tuning knobs that allow adapting to a specific data
// and query workload").
package main

import (
	"context"
	"fmt"
	"log"

	"rstore"
	"rstore/internal/corpus"
	"rstore/internal/workload"
)

// spec is the shared dataset description (BulkLoad takes ownership of a
// corpus, so each configuration regenerates it deterministically).
var spec = workload.Spec{
	Name: "tune", Versions: 120, AvgDepth: 30, RecordsPerVersion: 300,
	UpdatePct: 0.10, Update: workload.RandomUpdate,
	RecordSize: 512, Pd: 0.05, Seed: 21,
}

func dataset() *corpus.Corpus {
	c, err := workload.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}
	return c
}

func main() {
	// A moderately branched dataset: 120 versions, ~300 records each.
	c := dataset()
	fmt.Printf("dataset: %d versions, %d unique records, %.1fMB unique volume\n\n",
		c.NumVersions(), c.NumRecords(), float64(c.TotalBytes())/(1<<20))

	fmt.Printf("%-14s %-10s %-4s %-9s %-14s %-12s %-12s %-12s\n",
		"partitioner", "chunk", "k", "#chunks", "total span", "storage", "Q1 requests", "Q1 fetched")

	type knob struct {
		name string
		p    rstore.Partitioner
		cap  int
		k    int
	}
	knobs := []knob{
		{"bottom-up", rstore.BottomUp(0), 8 << 10, 1},
		{"bottom-up β=16", rstore.BottomUp(16), 8 << 10, 1},
		{"shingle", rstore.Shingle(5), 8 << 10, 1},
		{"depth-first", rstore.DepthFirst(), 8 << 10, 1},
		{"breadth-first", rstore.BreadthFirst(), 8 << 10, 1},
		{"bottom-up", rstore.BottomUp(0), 2 << 10, 1},
		{"bottom-up", rstore.BottomUp(0), 32 << 10, 1},
		{"bottom-up", rstore.BottomUp(0), 8 << 10, 4},
		{"bottom-up", rstore.BottomUp(0), 8 << 10, 16},
	}

	for _, kn := range knobs {
		st, err := rstore.Open(context.Background(), rstore.Config{
			Partitioner: kn.p, ChunkCapacity: kn.cap, SubChunkK: kn.k,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := st.BulkLoad(context.Background(), dataset()); err != nil {
			log.Fatal(err)
		}
		last := rstore.VersionID(st.NumVersions() - 1)
		_, q1, err := st.GetVersionAll(context.Background(), last)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %-10s %-4d %-9d %-14d %-12s %-12d %-12s\n",
			kn.name,
			fmt.Sprintf("%dKB", kn.cap>>10),
			kn.k,
			st.NumChunks(),
			st.TotalVersionSpan(),
			fmt.Sprintf("%.2fMB", float64(st.ChunkStorageBytes(context.Background()))/(1<<20)),
			q1.Requests,
			fmt.Sprintf("%.1fKB", float64(q1.BytesRead)/(1<<10)),
		)
	}

	fmt.Println("\nreading the table:")
	fmt.Println("  - the tree-aware partitioners (bottom-up, shingle) beat the greedy")
	fmt.Println("    traversals at equal storage; β trades a little span for faster")
	fmt.Println("    partitioning on huge trees")
	fmt.Println("  - smaller chunks shrink wasted transfer per query but raise span;")
	fmt.Println("    larger chunks do the opposite (the §2.3 trade-off)")
	fmt.Println("  - larger k compresses more aggressively (less storage) while span")
	fmt.Println("    shifts with the two Fig 10 factors")
}
