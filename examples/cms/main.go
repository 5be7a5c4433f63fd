// CMS: a content-management workload — large JSON documents receiving many
// small edits — demonstrating record-level compression with sub-chunks
// (paper §3.4): multiple versions of an article are delta-encoded together,
// shrinking storage while version retrieval stays chunk-local.
//
// The run commits the same editing history into two stores (k=1 vs k=8) and
// compares storage volume and query costs.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"rstore"
)

const (
	articles  = 120
	revisions = 40
	bodyWords = 300
)

func articleKey(i int) rstore.Key { return rstore.Key(fmt.Sprintf("article-%03d", i)) }

// body generates a large document; edit rewrites a few words of it (a small
// change relative to the document size — the sub-chunk sweet spot).
func body(rng *rand.Rand) []string {
	words := make([]string, bodyWords)
	for i := range words {
		words[i] = fmt.Sprintf("w%05d", rng.Intn(99999))
	}
	return words
}

func edit(rng *rand.Rand, words []string) []string {
	out := append([]string(nil), words...)
	for i := 0; i < 5; i++ {
		out[rng.Intn(len(out))] = fmt.Sprintf("e%05d", rng.Intn(99999))
	}
	return out
}

func render(title string, words []string) []byte {
	return []byte(fmt.Sprintf(`{"title":%q,"body":%q}`, title, strings.Join(words, " ")))
}

func run(k int) (storageMB float64, q1, q3 rstore.QueryStats) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))
	st, err := rstore.Open(ctx, rstore.Config{ChunkCapacity: 64 << 10, SubChunkK: k})
	if err != nil {
		log.Fatal(err)
	}

	bodies := make([][]string, articles)
	root := rstore.Change{Puts: map[rstore.Key][]byte{}}
	for i := range bodies {
		bodies[i] = body(rng)
		root.Puts[articleKey(i)] = render(fmt.Sprintf("article %d", i), bodies[i])
	}
	tip, err := st.Commit(ctx, rstore.NoParent, root)
	if err != nil {
		log.Fatal(err)
	}

	// Editing stream: every revision touches a handful of articles with
	// small word-level changes.
	for r := 0; r < revisions; r++ {
		ch := rstore.Change{Puts: map[rstore.Key][]byte{}}
		for e := 0; e < 4; e++ {
			a := rng.Intn(articles)
			bodies[a] = edit(rng, bodies[a])
			ch.Puts[articleKey(a)] = render(fmt.Sprintf("article %d", a), bodies[a])
		}
		tip, err = st.Commit(ctx, tip, ch)
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := st.Materialize(ctx); err != nil {
		log.Fatal(err)
	}

	_, q1, err = st.GetVersionAll(ctx, tip)
	if err != nil {
		log.Fatal(err)
	}
	_, q3, err = st.GetHistoryAll(ctx, articleKey(7))
	if err != nil {
		log.Fatal(err)
	}
	return float64(st.ChunkStorageBytes(ctx)) / (1 << 20), q1, q3
}

// fetched renders what a query read: chunks consulted, requests issued and
// bytes transferred.
func fetched(st rstore.QueryStats) string {
	return fmt.Sprintf("span %d, %d req, %.1fKB", st.Span, st.Requests, float64(st.BytesRead)/(1<<10))
}

func main() {
	fmt.Printf("%d articles × %d revisions, ~%d-word bodies, 5-word edits\n\n",
		articles, revisions, bodyWords)
	fmt.Printf("%-22s %-12s %-26s %-26s\n", "config", "chunk store", "Q1 fetched", "Q3 fetched")
	for _, k := range []int{1, 8} {
		storage, q1, q3 := run(k)
		label := "no compression (k=1)"
		if k > 1 {
			label = fmt.Sprintf("sub-chunks (k=%d)", k)
		}
		fmt.Printf("%-22s %-12s %-26s %-26s\n", label,
			fmt.Sprintf("%.2fMB", storage), fetched(q1), fetched(q3))
	}
	fmt.Println("\nsub-chunking stores near-duplicate revisions as binary deltas against")
	fmt.Println("their parent revision, cutting chunk storage while keeping every")
	fmt.Println("version reconstructable from a handful of chunk fetches.")
}
