package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"blugpu/internal/columnar"
)

// referenceJoin is the sequential map-of-slices hash join that hashJoin
// replaced: the reference for its output rows and their order.
func referenceJoin(build, probe *columnar.Int64Column, buildRight bool) (leftRows, rightRows []int32) {
	ht := make(map[int64][]int32, build.Len())
	for i := 0; i < build.Len(); i++ {
		if build.IsNull(i) {
			continue
		}
		k := build.Int64(i)
		ht[k] = append(ht[k], int32(i))
	}
	for i := 0; i < probe.Len(); i++ {
		if probe.IsNull(i) {
			continue
		}
		for _, m := range ht[probe.Int64(i)] {
			if buildRight {
				leftRows = append(leftRows, int32(i))
				rightRows = append(rightRows, m)
			} else {
				leftRows = append(leftRows, m)
				rightRows = append(rightRows, int32(i))
			}
		}
	}
	return leftRows, rightRows
}

// keyColumn builds an Int64Column; rows where null reports true are NULL
// (their payload is left as generated, as a gather would leave it).
func keyColumn(keys []int64, null func(i int) bool) *columnar.Int64Column {
	var nulls *columnar.Bitmap
	for i := range keys {
		if null != nil && null(i) {
			if nulls == nil {
				nulls = columnar.NewBitmap(len(keys))
			}
			nulls.Set(i)
		}
	}
	return columnar.NewInt64Column("k", keys, nulls)
}

func checkJoin(t *testing.T, label string, build, probe *columnar.Int64Column) {
	t.Helper()
	for _, buildRight := range []bool{true, false} {
		wantL, wantR := referenceJoin(build, probe, buildRight)
		for _, d := range []int{1, 2, 8} {
			gotL, gotR := hashJoin(build, probe, buildRight, d)
			if !slices.Equal(gotL, wantL) || !slices.Equal(gotR, wantR) {
				t.Fatalf("%s buildRight=%v degree=%d: got %d/%d rows, want %d/%d (first mismatch %d)",
					label, buildRight, d, len(gotL), len(gotR), len(wantL), len(wantR),
					firstMismatch(gotL, wantL, gotR, wantR))
			}
		}
	}
}

func firstMismatch(gl, wl, gr, wr []int32) int {
	for i := 0; i < len(gl) && i < len(wl) && i < len(gr) && i < len(wr); i++ {
		if gl[i] != wl[i] || gr[i] != wr[i] {
			return i
		}
	}
	return min(len(gl), len(wl))
}

// TestHashJoinMatchesReference checks the flat-index parallel join
// against the map join, row for row and in order, over NULLs on either
// side, duplicate build keys, dense and sparse spans, keys at the int64
// extremes, empty inputs and probe sizes around word and grain bounds.
func TestHashJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func(n int, key func() int64) []int64 {
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = key()
		}
		return ks
	}
	everyN := func(n int) func(int) bool { return func(i int) bool { return i%n == n-1 } }
	dense := func(base int64, span int) func() int64 {
		return func() int64 { return base + int64(rng.Intn(span)) }
	}
	sparse := func() int64 { return rng.Int63() - rng.Int63() }
	extreme := func() int64 {
		if rng.Intn(2) == 0 {
			return math.MinInt64 + int64(rng.Intn(40))
		}
		return math.MaxInt64 - int64(rng.Intn(40))
	}
	probeSizes := []int{0, 1, 63, 64, 65, joinGrain - 1, joinGrain, joinGrain + 1, 2*joinGrain + 65}

	type buildCase struct {
		name  string
		keys  []int64
		nulls func(int) bool
	}
	permuted := gen(2000, func() int64 { return 0 })
	for i, p := range rng.Perm(2000) {
		permuted[i] = int64(p) + 1
	}
	builds := []buildCase{
		{"unique-dense", permuted, nil},
		{"dup-dense", gen(500, dense(-100, 300)), nil},
		{"dup-dense-nulls", gen(500, dense(7, 300)), everyN(5)},
		{"sparse", gen(300, sparse), nil},
		{"sparse-dups-nulls", append(gen(200, sparse), gen(100, dense(0, 3))...), everyN(7)},
		{"extremes", gen(64, extreme), nil},
		{"near-max", gen(64, dense(math.MaxInt64-100, 101)), everyN(9)},
		{"near-min", gen(64, dense(math.MinInt64, 101)), nil},
		{"single", []int64{42}, nil},
	}
	for _, bc := range builds {
		build := keyColumn(bc.keys, bc.nulls)
		if buildJoinIndex(build) == nil {
			t.Fatalf("%s: no index over non-NULL keys", bc.name)
		}
		for _, np := range probeSizes {
			// Probe keys come from the build keys, their neighbours and
			// random misses, so hits, misses and wrap-around all occur.
			probe := gen(np, func() int64 {
				k := bc.keys[rng.Intn(len(bc.keys))]
				switch rng.Intn(4) {
				case 0:
					return k + 1
				case 1:
					return sparse()
				}
				return k
			})
			for _, pn := range []struct {
				name  string
				nulls func(int) bool
			}{{"", nil}, {"-probe-nulls", everyN(3)}} {
				checkJoin(t, fmt.Sprintf("%s%s np=%d", bc.name, pn.name, np), build, keyColumn(probe, pn.nulls))
			}
		}
	}

	// Degenerate inputs: an empty or all-NULL build, an empty probe and
	// a probe that matches nothing.
	some := keyColumn(gen(100, dense(0, 50)), nil)
	checkJoin(t, "empty-build", keyColumn(nil, nil), some)
	checkJoin(t, "all-null-build", keyColumn(gen(10, dense(0, 5)), func(int) bool { return true }), some)
	checkJoin(t, "empty-probe", some, keyColumn(nil, nil))
	checkJoin(t, "no-match", some, keyColumn(gen(joinGrain+1, dense(1000, 50)), nil))
	if l, r := hashJoin(some, keyColumn(nil, nil), true, 2); l != nil || r != nil {
		t.Fatalf("empty probe: got %v/%v, want nil", l, r)
	}
}

// FuzzHashJoin drives the join with byte-derived keys: 0xFF is NULL, any
// other byte b maps to base + (b % mod) * stride with int64 wrap-around,
// so base, mod and stride reach dense, sparse and extreme key sets; the
// probe bytes repeat to cross the join grain.
func FuzzHashJoin(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 0xFF}, []byte{2, 3, 4, 0xFF, 1}, int64(0), uint8(16), uint8(0), uint8(1))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{7, 6, 5, 9}, int64(math.MaxInt64-3), uint8(255), uint8(0), uint8(64))
	f.Add([]byte{0, 1, 0xFF, 200, 100}, []byte{0, 1, 100, 200}, int64(math.MinInt64), uint8(255), uint8(62), uint8(200))
	f.Add([]byte{}, []byte{1, 2}, int64(5), uint8(3), uint8(3), uint8(0))
	f.Add([]byte{9, 9, 9}, []byte{}, int64(-5), uint8(10), uint8(40), uint8(10))
	f.Fuzz(func(t *testing.T, buildBytes, probeBytes []byte, base int64, mod, shift, repeat uint8) {
		if mod == 0 {
			mod = 1
		}
		stride := int64(1) << (shift % 63)
		keys := func(bs []byte, times int) *columnar.Int64Column {
			ks := make([]int64, 0, len(bs)*times)
			for r := 0; r < times; r++ {
				for _, b := range bs {
					ks = append(ks, base+int64(b%mod)*stride)
				}
			}
			return keyColumn(ks, func(i int) bool { return bs[i%len(bs)] == 0xFF })
		}
		times := 1 + int(repeat)%64*joinGrain/max(64, len(probeBytes)*16)
		checkJoin(t, "fuzz", keys(buildBytes, 1), keys(probeBytes, times))
	})
}

// BenchmarkHashJoin measures the join kernel on a 144k-row probe against
// a 2,000-row build: dense surrogate keys (every probe row matching one
// build row) and sparse random keys (one probe row in four missing).
// The degree is GOMAXPROCS, so -cpu sets it.
func BenchmarkHashJoin(b *testing.B) {
	const nBuild, nProbe = 2000, 144000
	rng := rand.New(rand.NewSource(3))
	for _, mode := range []string{"dense", "sparse"} {
		buildKeys := make([]int64, nBuild)
		for i := range buildKeys {
			buildKeys[i] = int64(i + 1)
			if mode == "sparse" {
				buildKeys[i] = rng.Int63()
			}
		}
		probeKeys := make([]int64, nProbe)
		for i := range probeKeys {
			probeKeys[i] = buildKeys[rng.Intn(nBuild)]
			if mode == "sparse" && i%4 == 3 {
				probeKeys[i] = rng.Int63()
			}
		}
		build, probe := keyColumn(buildKeys, nil), keyColumn(probeKeys, nil)
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchRows, _ = hashJoin(build, probe, true, 0)
			}
		})
	}
}

var benchRows []int32
