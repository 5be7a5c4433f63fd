package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks; NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// typical is the interquartile mean: the mean of the middle half of the
// sample. Every latency this benchmark reports is one. Like the median it
// ignores the tail (a 200 ms stall in one streamed read in seven), but it
// moves smoothly where the median jumps: a version read costs as many
// chunk fetches as the version spans, so latencies cluster in levels, and
// the median flips between two levels when the share of either crosses one
// half; beside a reader, a commit's wait for the lock is spread evenly from
// nothing to a whole read, and the median of a flat distribution wanders.
func typical(xs []float64) float64 {
	if len(xs) < 4 {
		return mean(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[len(s)/4 : len(s)-len(s)/4])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles are the three cut points of statistics.quantiles(xs, n=4) in
// Python (the "exclusive" method), which is what the driver computes its
// spreads from.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// closesBatch reports whether the n-th commit a store receives (1-based)
// triggers online partitioning: core flushes when the pending set reaches
// the batch size, so it is every batch-th commit since the last flush. A
// bulk load or an explicit flush leaves nothing pending, so counting
// restarts there. Commits are classified by this position, never by how
// long they took.
func closesBatch(n, batch int) bool { return batch > 0 && n > 0 && n%batch == 0 }

// sampleFloor is the least number of samples an untraced run's latency may
// rest on.
const sampleFloor = 300

// stallShare is the percentage of samples slower than five times their
// class median.
func stallShare(classes ...[]float64) float64 {
	var slow, n int
	for _, xs := range classes {
		m := median(xs)
		for _, x := range xs {
			if x > 5*m {
				slow++
			}
		}
		n += len(xs)
	}
	if n == 0 {
		return 0
	}
	return 100 * float64(slow) / float64(n)
}
