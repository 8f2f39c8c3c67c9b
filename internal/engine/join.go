package engine

import (
	"math/bits"

	"blugpu/internal/columnar"
	"blugpu/internal/parallel"
)

// joinGrain is the minimum probe rows per worker. A probe row costs a
// slot lookup and a short copy: on a 2-core box a second worker breaks
// even at about 8k probe rows and is about 20% faster at 16k.
const joinGrain = 8192

// joinIndex is the build side of the hash join as a flat CSR index: the
// build rows whose key maps to slot s are rows[start[s]:start[s+1]], in
// ascending row order. Keys map to slots through an open-addressing
// table probed linearly from the key's hash position.
type joinIndex struct {
	start  []int32
	rows   []int32
	nslots uint32
	table  []hashEntry
	shift  uint
}

// hashEntry is one open-addressing position: key and slot+1 (0 = empty).
type hashEntry struct {
	key  int64
	slot uint32
}

// hashJoin joins probe against build on equal non-NULL keys and returns
// the matching left and right row ids (build is the right input when
// buildRight). Output follows probe rows ascending and, within one probe
// row, build rows ascending — the order of a sequential nested probe —
// at every degree: workers count their matches, a prefix sum gives each
// its output offset, and a second pass fills the presized vectors.
func hashJoin(build, probe *columnar.Int64Column, buildRight bool, degree int) (leftRows, rightRows []int32) {
	ix := buildJoinIndex(build)
	if ix == nil || probe.Len() == 0 {
		return nil, nil
	}
	keys, nulls := probe.Data(), probe.Nulls().Words()
	n := len(keys)
	// Pass 1 looks every probe row's slot up once (nslots: no match) and
	// counts matches per worker; pass 2 reads the slots back to fill.
	slots := make([]uint32, n)
	offsets := make([]int, parallel.Workers(n, joinGrain, degree))
	parallel.For(n, joinGrain, degree, func(lo, hi, w int) {
		offsets[w] = ix.lookup(keys, nulls, lo, hi, slots)
	})
	total := 0
	for w, c := range offsets {
		offsets[w] = total
		total += c
	}
	if total == 0 {
		return nil, nil
	}
	probeOut, buildOut := make([]int32, total), make([]int32, total)
	parallel.For(n, joinGrain, degree, func(lo, hi, w int) {
		o := offsets[w]
		for i, s := range slots[lo:hi] {
			if s >= ix.nslots {
				continue
			}
			for _, r := range ix.rows[ix.start[s]:ix.start[s+1]] {
				probeOut[o], buildOut[o] = int32(lo+i), r
				o++
			}
		}
	})
	if buildRight {
		return probeOut, buildOut
	}
	return buildOut, probeOut
}

// lookup stores the slot of each probe row in [lo, hi) of keys into
// slots (nslots for a NULL key or one no build row has) and returns the
// rows' match count.
func (ix *joinIndex) lookup(keys []int64, nulls []uint64, lo, hi int, slots []uint32) int {
	matches := 0
	for i := lo; i < hi; i++ {
		s := ix.nslots
		if !columnar.NullAt(nulls, i) {
			s = ix.slotOf(keys[i])
		}
		slots[i] = s
		if s < ix.nslots {
			matches += int(ix.start[s+1] - ix.start[s])
		}
	}
	return matches
}

// buildJoinIndex indexes build's non-NULL keys; nil when there are none.
func buildJoinIndex(build *columnar.Int64Column) *joinIndex {
	keys, nulls := build.Data(), build.Nulls().Words()
	nonNull := len(keys)
	for _, w := range nulls {
		nonNull -= bits.OnesCount64(w)
	}
	if nonNull == 0 {
		return nil
	}

	size := 1 << bits.Len(uint(2*nonNull-1)) // power of two >= 2*nonNull
	ix := &joinIndex{table: make([]hashEntry, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
	// slots[i] is build row i's slot, -1 for NULL.
	slots := make([]int32, len(keys))
	for i, k := range keys {
		slots[i] = -1
		if columnar.NullAt(nulls, i) {
			continue
		}
		h := ix.hash(k)
		for ix.table[h].slot != 0 && ix.table[h].key != k {
			h = (h + 1) & uint64(size-1)
		}
		if ix.table[h].slot == 0 {
			ix.nslots++
			ix.table[h] = hashEntry{k, ix.nslots}
		}
		slots[i] = int32(ix.table[h].slot - 1)
	}

	// Counting sort of build rows by slot: a stable scatter keeps each
	// slot's rows ascending.
	ix.start = make([]int32, ix.nslots+1)
	for _, s := range slots {
		if s >= 0 {
			ix.start[s+1]++
		}
	}
	for s := range ix.nslots {
		ix.start[s+1] += ix.start[s]
	}
	next := append([]int32(nil), ix.start[:ix.nslots]...)
	ix.rows = make([]int32, nonNull)
	for i, s := range slots {
		if s >= 0 {
			ix.rows[next[s]] = int32(i)
			next[s]++
		}
	}
	return ix
}

// hash maps k to an open-addressing position (Fibonacci hashing).
func (ix *joinIndex) hash(k int64) uint64 {
	return uint64(k) * 0x9E3779B97F4A7C15 >> ix.shift
}

// slotOf returns k's slot, or nslots when no build row has key k.
func (ix *joinIndex) slotOf(k int64) uint32 {
	mask := uint64(len(ix.table) - 1)
	for h := ix.hash(k); ; h = (h + 1) & mask {
		e := ix.table[h]
		if e.key == k && e.slot != 0 {
			return e.slot - 1
		}
		if e.slot == 0 {
			return ix.nslots
		}
	}
}
