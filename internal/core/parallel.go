package core

import (
	"runtime"
	"sync"
)

// ordered runs work(0), work(1), …, work(n-1) on up to GOMAXPROCS goroutines
// and hands each result to consume on the caller's goroutine, in index order.
// The paper notes RStore "currently processes the retrieved chunks
// sequentially while constructing the query result and cannot benefit from
// the increased parallelism; we are working on parallelizing the entire
// end-to-end process" (§5.5). This is that extension, at both ends of a
// chunk's life: a query's segments are decoded here (Store.stream), and a
// placement run's chunks are coded here (place) while the run binds, in
// chunk-id order, the ones before them — the CPU-heavy step of each, binary
// deltas and run lists, parallelizes cleanly per segment and per chunk.
//
// Work runs at most poolWindow results per goroutine ahead of consume, so
// memory is bounded by the window, not by n. The first error — of work or of
// consume, in index order — is returned, and no goroutine outlives the call,
// whatever it returns: a work item already started runs to its end and its
// result is dropped. With one goroutine, or one item, everything runs on the
// caller's.
func ordered[T any](n int, work func(i int) (T, error), consume func(i int, v T) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := work(i)
			if err != nil {
				return err
			}
			if err := consume(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	type result struct {
		v   T
		err error
	}
	// Item i's result goes to slot i mod window. An item is handed out only
	// once the one window before it was consumed, so its slot is empty and a
	// worker never blocks on a send.
	window := poolWindow * workers
	slots := make([]chan result, window)
	for i := range slots {
		slots[i] = make(chan result, 1)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				v, err := work(i)
				slots[i%window] <- result{v, err}
			}
		}()
	}
	defer wg.Wait()
	defer close(next)

	handed := 0
	for i := 0; i < n; i++ {
		for ; handed < min(n, i+window); handed++ {
			next <- handed
		}
		r := <-slots[i%window]
		if r.err != nil {
			return r.err
		}
		if err := consume(i, r.v); err != nil {
			return err
		}
	}
	return nil
}

// poolWindow is how many results per goroutine ordered lets work run ahead of
// consume: two keeps every goroutine busy while consume takes the oldest.
const poolWindow = 2
