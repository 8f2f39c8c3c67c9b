package bsort

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"blugpu/internal/vtime"
)

var testDegrees = []int{1, 2, 8}

// randomVals covers the depth-2 int64 key path with a duplicate-heavy
// distribution so duplicate ranges requeue at the next depth.
func randomVals(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(97) - 48
	}
	return vals
}

func sortDegree(t *testing.T, vals []int64, cfg Config) ([]int32, Stats) {
	t.Helper()
	perm, st, err := Sort(intSource(vals), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return perm, st
}

// TestSortDegreeMatchesSequential proves the permutation and the
// queue-shape stats are identical at every degree, for both the CPU-only
// and the partitioned configuration, including sizes that cross the
// partition-parallel host sort threshold.
func TestSortDegreeMatchesSequential(t *testing.T) {
	sizes := []int{0, 1, 5, 63, 1000, hostPartitionMin + 123}
	for _, n := range sizes {
		vals := randomVals(n, int64(n)+1)
		for _, partitions := range []int{0, 4} {
			base := Config{Model: vtime.Default(), Degree: 1, Partitions: partitions}
			seqPerm, seqSt := sortDegree(t, vals, base)
			for _, d := range testDegrees[1:] {
				cfg := base
				cfg.Degree = d
				perm, st := sortDegree(t, vals, cfg)
				label := fmt.Sprintf("n=%d partitions=%d degree=%d", n, partitions, d)
				if len(perm) != len(seqPerm) {
					t.Fatalf("%s: perm length %d != %d", label, len(perm), len(seqPerm))
				}
				for i := range perm {
					if perm[i] != seqPerm[i] {
						t.Fatalf("%s: perm[%d] = %d, want %d", label, i, perm[i], seqPerm[i])
					}
				}
				if st.Jobs != seqSt.Jobs || st.CPUJobs != seqSt.CPUJobs ||
					st.GPUJobs != seqSt.GPUJobs || st.MaxDepth != seqSt.MaxDepth {
					t.Fatalf("%s: stats %+v, want %+v", label, st, seqSt)
				}
			}
		}
	}
}

// TestSortDegreeMatchesWithGPU repeats the differential check with the
// device path enabled, where duplicate ranges requeue at deeper depths.
func TestSortDegreeMatchesWithGPU(t *testing.T) {
	vals := randomVals(1<<17, 7)
	base := Config{
		Model:        vtime.Default(),
		Scheduler:    twoGPUSched(),
		Degree:       1,
		GPUThreshold: 1 << 12,
	}
	seqPerm, seqSt := sortDegree(t, vals, base)
	if seqSt.GPUJobs == 0 {
		t.Fatal("test did not exercise the GPU path")
	}
	for _, d := range testDegrees[1:] {
		cfg := base
		cfg.Scheduler = twoGPUSched()
		cfg.Degree = d
		perm, st := sortDegree(t, vals, cfg)
		for i := range perm {
			if perm[i] != seqPerm[i] {
				t.Fatalf("degree %d: perm[%d] = %d, want %d", d, i, perm[i], seqPerm[i])
			}
		}
		if st.Jobs != seqSt.Jobs || st.MaxDepth != seqSt.MaxDepth {
			t.Fatalf("degree %d: stats %+v, want %+v", d, st, seqSt)
		}
	}
}

// TestBuildKeyBuffer checks the exported partial-key-buffer build against
// a direct sequential construction at every depth and degree.
func TestBuildKeyBuffer(t *testing.T) {
	vals := randomVals(4097, 3)
	src := intSource(vals)
	for depth := 0; depth < src.MaxDepth(); depth++ {
		want := make([]Entry, src.NumRows())
		for i := range want {
			want[i] = MakeEntry(src.PartialKey(int32(i), depth), uint32(i))
		}
		for _, d := range testDegrees {
			got := BuildKeyBuffer(src, depth, d)
			if len(got) != len(want) {
				t.Fatalf("depth=%d degree=%d: %d entries, want %d", depth, d, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("depth=%d degree=%d: entry %d = %x, want %x", depth, d, i, got[i], want[i])
				}
			}
		}
	}
}

// TestHostSortRangeCrossesPartitionPath sorts a range just above the
// partition threshold directly and checks it against sort at degree 1.
func TestHostSortRangeCrossesPartitionPath(t *testing.T) {
	n := hostPartitionMin + 77
	vals := randomVals(n, 11)
	src := intSource(vals)
	mk := func(degree int) []Entry {
		es := BuildKeyBuffer(src, 0, degree)
		hostSortRange(es, Range{0, n}, 0, src, degree)
		return es
	}
	want := mk(1)
	for _, d := range testDegrees[1:] {
		got := mk(d)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("degree %d: entry %d = %x, want %x", d, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkPartialKeyBuild tracks the paper's host-side partial key
// buffer generation; compare degree sub-benchmarks for the speedup.
func BenchmarkPartialKeyBuild(b *testing.B) {
	const n = 1 << 20
	vals := randomVals(n, 5)
	src := intSource(vals)
	for _, degree := range []int{1, 8} {
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			b.SetBytes(int64(n) * 8)
			for i := 0; i < b.N; i++ {
				BuildKeyBuffer(src, 0, degree)
			}
		})
	}
}

// referenceHostSort is the comparator hostSortRange used before entries'
// stored partial keys were compared: every comparison re-reads both rows'
// partial keys at every depth from the key source.
func referenceHostSort(entries []Entry, r Range, depth int, src KeySource) {
	less := func(a, b Entry) bool {
		pa, pb := a.Payload(), b.Payload()
		for d := depth; d < src.MaxDepth(); d++ {
			ka, kb := src.PartialKey(int32(pa), d), src.PartialKey(int32(pb), d)
			if ka != kb {
				return ka < kb
			}
		}
		return pa < pb
	}
	es := entries[r.Lo:r.Hi]
	sort.Slice(es, func(a, b int) bool { return less(es[a], es[b]) })
}

// sharedPrefixKeys returns n keys of width bytes that share a long
// prefix, with few distinct values per byte so ties reach every depth.
// pad applies EncodePad, so a width that is not a multiple of 4 gets a
// zero tail; without it the last segment is short.
func sharedPrefixKeys(n, width int, pad bool, seed int64) *BytesKeySource {
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, 0, width+3)
		for j := 0; j < width; j++ {
			switch {
			case j < 6:
				k = append(k, 0xA5) // shared prefix
			default:
				k = append(k, byte(rng.Intn(3)))
			}
		}
		if pad {
			k = EncodePad(k)
		}
		keys[i] = k
	}
	return NewBytesKeySource(keys)
}

// TestBytesKeySourcePartialKey checks the one-step segment read against
// a byte-at-a-time big-endian read with zero fill past the key's end.
func TestBytesKeySourcePartialKey(t *testing.T) {
	for _, width := range []int{4, 13, 14, 15, 16} {
		src := sharedPrefixKeys(64, width, width == 14, int64(width))
		src.keys[5] = []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}[:len(src.keys[0])]
		for row := int32(0); row < int32(src.NumRows()); row++ {
			k := src.keys[row]
			for depth := 0; depth < src.MaxDepth()+1; depth++ {
				var want uint32
				for i := depth * 4; i < depth*4+4; i++ {
					want <<= 8
					if i < len(k) {
						want |= uint32(k[i])
					}
				}
				if got := src.PartialKey(row, depth); got != want {
					t.Fatalf("width=%d row=%d depth=%d: %08x, want %08x", width, row, depth, got, want)
				}
			}
		}
	}
}

// TestHostSortRangeMatchesReference checks the stored-key comparator
// against the per-depth reference: identical permutations at degrees
// 1/2/8, for shared-prefix keys with padded and short tails, start
// depths above 0 and ranges on both sides of hostPartitionMin.
func TestHostSortRangeMatchesReference(t *testing.T) {
	n := hostPartitionMin + 1500
	for _, ks := range []struct {
		name string
		src  *BytesKeySource
	}{
		{"padded-14", sharedPrefixKeys(n, 14, true, 1)},
		{"short-tail-13", sharedPrefixKeys(n, 13, false, 2)},
		{"aligned-16", sharedPrefixKeys(n, 16, true, 3)},
		{"ints", intSource(randomVals(n, 4))},
	} {
		src := ks.src
		for depth := 0; depth < src.MaxDepth(); depth++ {
			for _, r := range []Range{{0, n}, {700, 700 + hostPartitionMin + 5}, {3, 900}} {
				// Shuffled payloads, keyed at depth as Sort's rekey does.
				base := make([]Entry, n)
				for i, p := range rand.New(rand.NewSource(int64(depth))).Perm(n) {
					base[i] = MakeEntry(src.PartialKey(int32(p), depth), uint32(p))
				}
				want := append([]Entry(nil), base...)
				referenceHostSort(want, r, depth, src)
				for _, d := range testDegrees {
					got := append([]Entry(nil), base...)
					hostSortRange(got, r, depth, src, d)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s depth=%d range=%v degree=%d: entry %d = %x, want %x",
								ks.name, depth, r, d, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// BenchmarkHostSortRange measures the host path of a 64k-row sort job
// at depth 0 over ORDER BY (dictionary code, int64) keys: 512 codes in
// the first segment, so a comparison usually resolves on the stored key
// and ties read the int's two segments. The degree is GOMAXPROCS, so
// -cpu sets it.
func BenchmarkHostSortRange(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(9))
	keys := make([][]byte, n)
	for i := range keys {
		k := AppendUint32Key(nil, uint32(rng.Intn(512)), false)
		keys[i] = AppendInt64Key(k, rng.Int63n(100000), false)
	}
	src := NewBytesKeySource(keys)
	base := BuildKeyBuffer(src, 0, 1)
	es := make([]Entry, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(es, base)
		hostSortRange(es, Range{0, n}, 0, src, 0)
	}
}
