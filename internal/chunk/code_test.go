package chunk

import (
	"bytes"
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"rstore/internal/docgen"
)

// fullChunk returns items of §5.1 documents of size bytes, ranked, as many as
// a 1 MiB chunk holds, and the index of each.
func fullChunk(tb testing.TB, seed int64, size int) ([]Item, []uint32) {
	tb.Helper()
	c, items := revisionItems(tb, (1<<20)/(size+16), 1, documents(docgen.New(seed), size))
	RankItems(c, items)
	idxs := allOf(items)
	return items, idxs
}

// cloneValues copies a chunk's segment values.
func cloneValues(values [][]byte) [][]byte {
	out := make([][]byte, len(values))
	for i, v := range values {
		out[i] = bytes.Clone(v)
	}
	return out
}

// TestCodeValuesOwnTheirBytes: the values Code returns alias nothing it
// reuses — not the scratch it codes segments in, not one another — so coding
// chunk A, then B, then A again leaves A's first values as they were, byte
// for byte, and the second coding of A equals the first. Each value is its
// segment alone, whole.
func TestCodeValuesOwnTheirBytes(t *testing.T) {
	itemsA, idxsA := fullChunk(t, 1, 256)
	itemsB, idxsB := fullChunk(t, 2, 512)
	a, err := Code(itemsA, idxsA)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Values) < 4 {
		t.Fatalf("a full chunk coded to %d segments", len(a.Values))
	}
	first := cloneValues(a.Values)
	if _, err := Code(itemsB, idxsB); err != nil {
		t.Fatal(err)
	}
	again, err := Code(itemsA, idxsA)
	if err != nil {
		t.Fatal(err)
	}
	for s := range first {
		if !bytes.Equal(a.Values[s], first[s]) || !bytes.Equal(again.Values[s], first[s]) {
			t.Fatalf("segment %d of chunk A changed after coding B and A again", s)
		}
	}
	if st := storedOf(t, a.Values); len(st.Records) != len(itemsA) {
		t.Fatalf("chunk A decodes to %d records of %d", len(st.Records), len(itemsA))
	}
	// Overwritten one by one, no value changes another.
	for s := range a.Values {
		clear(a.Values[s])
		for o := s + 1; o < len(a.Values); o++ {
			if !bytes.Equal(a.Values[o], first[o]) {
				t.Fatalf("segment %d shares memory with segment %d", o, s)
			}
		}
	}
}

// TestConcurrentCodeMatchesSequential: chunks coded on several goroutines at
// once, over items they share, come out as coding them one by one does — a
// Code call's scratch is its own. Run under -race, it also shows that no two
// calls write the same memory.
func TestConcurrentCodeMatchesSequential(t *testing.T) {
	items, idxs := fullChunk(t, 3, 256)
	// Six chunks of overlapping thirds of the items, in shuffled orders.
	var jobs [][]uint32
	for j := range 6 {
		part := slices.Clone(idxs[j*len(idxs)/9 : (j+3)*len(idxs)/9])
		slices.Reverse(part[:len(part)/2])
		jobs = append(jobs, part)
	}
	want := make([][][]byte, len(jobs))
	for j, job := range jobs {
		coded, err := Code(items, job)
		if err != nil {
			t.Fatal(err)
		}
		want[j] = coded.Values
	}
	got := make([][][]byte, len(jobs))
	var wg sync.WaitGroup
	for j, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			coded, err := Code(items, job)
			if err != nil {
				t.Error(err)
				return
			}
			got[j] = coded.Values
		}()
	}
	wg.Wait()
	for j := range jobs {
		if len(got[j]) != len(want[j]) {
			t.Fatalf("chunk %d: %d segments concurrently, %d one by one", j, len(got[j]), len(want[j]))
		}
		for s := range want[j] {
			if !bytes.Equal(got[j][s], want[j][s]) {
				t.Fatalf("chunk %d segment %d differs coded concurrently", j, s)
			}
		}
	}
}

// TestCodeAllocatesAboutWhatItStores: coding a full chunk of §5.1 documents
// allocates its stored bytes, once, and a fixed scratch besides — not a
// buffer the size of the items' plain bytes, nor the per-segment arrays
// anew for every segment. Measured on this goroutine by TotalAlloc, which
// the test's other goroutines, idle, do not move.
func TestCodeAllocatesAboutWhatItStores(t *testing.T) {
	items, idxs := fullChunk(t, 4, 256)
	if _, err := Code(items, idxs); err != nil { // warm whatever is allocated once per process
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	coded, err := Code(items, idxs)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	stored, plain := 0, 0
	for _, v := range coded.Values {
		stored += len(v)
	}
	for _, it := range items {
		plain += it.EncodedLen()
	}
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(2*stored + 128<<10); got > limit {
		t.Fatalf("coding a chunk of %d plain bytes stored in %d allocated %d bytes, want at most %d", plain, stored, got, limit)
	}
	t.Logf("plain %d, stored %d, allocated %d bytes (%.2f × stored)", plain, stored, got, float64(got)/float64(stored))
}

// TestSortSlotsOrdersByKey: sortSlots orders distinct keys as a comparison
// sort does, whichever of their bytes differ — ranks past 2^24, versions
// past 2^8, a chunk of one key, of one version, of none.
func TestSortSlotsOrdersByKey(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	for _, tc := range []struct {
		name         string
		n            int
		ranks, vers  int64
		ranksFromTop bool
	}{
		{"empty", 0, 1, 1, false},
		{"one", 1, 1, 1, false},
		{"one key", 300, 1, 1 << 20, false},
		{"one version", 300, 1 << 30, 1, false},
		{"small", 4000, 1 << 17, 200, false},
		{"wide", 4000, 1 << 32, 1 << 32, false},
		{"high ranks", 4000, 1 << 8, 1 << 4, true},
	} {
		seen := map[uint64]bool{}
		keys := make([]slotKey, 0, 2*tc.n)
		for len(keys) < tc.n {
			rank, ver := uint64(rng.Int63n(tc.ranks)), uint64(rng.Int63n(tc.vers))
			if tc.ranksFromTop {
				rank = 1<<32 - 1 - rank
			}
			if k := rank<<32 | ver; !seen[k] {
				seen[k] = true
				keys = append(keys, slotKey{k, uint32(len(keys)), 0})
			}
		}
		want := slices.Clone(keys)
		slices.SortFunc(want, func(a, b slotKey) int { return cmp.Compare(a.key, b.key) })
		got := sortSlots(keys, make([]slotKey, len(keys)))
		if !slices.Equal(got, want) {
			t.Errorf("%s: sortSlots orders %d keys otherwise than a comparison sort", tc.name, tc.n)
		}
	}
}
