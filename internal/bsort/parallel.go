package bsort

import (
	"cmp"
	"slices"
	"sync"

	"blugpu/internal/parallel"
)

// keygenGrain is the minimum rows per worker for partial-key generation;
// SDS key extraction is expensive enough that small chunks still pay.
const keygenGrain = 512

// partitionGrain is the minimum entries per worker for the histogram and
// scatter passes of the conflict-free partition.
const partitionGrain = 4096

// hostPartitionMin is the smallest range worth partition-parallel
// sorting on the host; below it a single comparison sort wins.
const hostPartitionMin = 1 << 14

// BuildKeyBuffer materializes the partial key buffer for every row of
// src at the given depth: entry i carries row i's 4-byte partial key and
// its payload. This is the paper's "partial key buffer ... built by
// parallel host threads" (Section 3); Sort runs the same per-range
// generation internally, and the benchmarks drive this entry point.
func BuildKeyBuffer(src KeySource, depth, degree int) []Entry {
	n := src.NumRows()
	entries := make([]Entry, n)
	parallel.For(n, keygenGrain, degree, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			entries[i] = MakeEntry(src.PartialKey(int32(i), depth), uint32(i))
		}
	})
	return entries
}

// partitionTopByte stably scatters es into 256 buckets by the leading
// byte of the current partial key, using scratch (len >= len(es)) as the
// out-of-place target, and returns the 257 bucket offsets. The histogram
// and the scatter both run on the worker pool; per-(bucket, worker)
// write cursors reproduce the sequential stable scatter exactly, because
// worker ranges cover the input in index order.
func partitionTopByte(es []Entry, degree int, scratch []Entry) [257]int {
	n := len(es)
	nw := parallel.Workers(n, partitionGrain, degree)
	counts := make([][256]int, nw)
	parallel.For(n, partitionGrain, degree, func(lo, hi, worker int) {
		c := &counts[worker]
		for _, e := range es[lo:hi] {
			c[e.Key()>>24]++
		}
	})
	var offsets [257]int
	next := make([][256]int, nw)
	pos := 0
	for b := 0; b < 256; b++ {
		offsets[b] = pos
		for w := 0; w < nw; w++ {
			next[w][b] = pos
			pos += counts[w][b]
		}
	}
	offsets[256] = pos
	parallel.For(n, partitionGrain, degree, func(lo, hi, worker int) {
		nx := &next[worker]
		for _, e := range es[lo:hi] {
			b := e.Key() >> 24
			scratch[nx[b]] = e
			nx[b]++
		}
	})
	copy(es[:n], scratch[:n])
	return offsets
}

// hostSortRange finishes a job's range entirely on the host: entries are
// ordered by every remaining key depth with the row-id tie-break, so the
// range never requeues. Large ranges at degree > 1 take the
// partition-parallel fallback: a conflict-free scatter into 256 buckets
// by the leading byte of the current partial key (the CPU analogue of
// the device's partition pass), then the buckets sort concurrently on a
// small worker pool. The comparator is a total order, so the
// concatenated buckets are bit-identical to a sequential sort.
//
// The caller must have rekeyed the range at `depth`: each entry carries
// its partial key at `depth`, whose top byte is the partition digit. The
// comparator compares those stored keys and reads deeper segments from
// the key source only on a tie.
func hostSortRange(entries []Entry, r Range, depth int, src KeySource, degree int) {
	maxDepth := src.MaxDepth()
	compare := func(a, b Entry) int {
		if a.Key() == b.Key() {
			pa, pb := int32(a.Payload()), int32(b.Payload())
			for d := depth + 1; d < maxDepth; d++ {
				if c := cmp.Compare(src.PartialKey(pa, d), src.PartialKey(pb, d)); c != 0 {
					return c
				}
			}
		}
		// An entry is its key above its payload: key order, then row id.
		return cmp.Compare(a, b)
	}
	es := entries[r.Lo:r.Hi]
	workers := parallel.Degree(degree)
	if workers <= 1 || len(es) < hostPartitionMin {
		slices.SortFunc(es, compare)
		return
	}
	scratch := make([]Entry, len(es))
	offsets := partitionTopByte(es, degree, scratch)
	buckets := make(chan Range, 256)
	for b := 0; b < 256; b++ {
		if offsets[b+1]-offsets[b] > 1 {
			buckets <- Range{offsets[b], offsets[b+1]}
		}
	}
	close(buckets)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for br := range buckets {
				slices.SortFunc(es[br.Lo:br.Hi], compare)
			}
		}()
	}
	wg.Wait()
}
