package core

import (
	"runtime"
	"sync"

	"rstore/internal/types"
)

// decodeSegments decodes fetched segments into the records their queries
// want, in parallel across segments. The paper notes RStore "currently
// processes the retrieved chunks sequentially while constructing the query
// result and cannot benefit from the increased parallelism; we are working on
// parallelizing the entire end-to-end process" (§5.5) — this implements that
// extension: decompression (binary-delta application) is the CPU-heavy step
// and parallelizes cleanly per segment. Results are positionally aligned with
// reads; decoding errors surface as one error. A point read's single segment
// is decoded on the caller's goroutine.
func decodeSegments(reads []segmentRead) ([][]types.Record, error) {
	out := make([][]types.Record, len(reads))
	workers := min(runtime.GOMAXPROCS(0), len(reads))
	if workers <= 1 {
		for i := range reads {
			var err error
			if out[i], err = reads[i].decode(); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		next     = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				recs, err := reads[i].decode()
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					continue
				}
				out[i] = recs
			}
		}()
	}
	for i := range reads {
		next <- i
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
