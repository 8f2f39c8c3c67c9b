package evaluator

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"blugpu/internal/columnar"
	"blugpu/internal/groupby"
	"blugpu/internal/murmur"
	"blugpu/internal/vtime"
)

// refChain is the per-row evaluator chain that the typed column loops
// replaced: every row looks its column up by name and reads it through
// the Column interface. It is the reference for BuildInput's output.
type refChain struct {
	fields   []KeyField
	keys     []uint64
	wideKeys [][]byte
	hashes   []uint64
	aggs     []groupby.AggSpec
	payloads [][]uint64
}

func referenceChain(tbl *columnar.Table, sel *columnar.Bitmap, spec Spec) (*refChain, error) {
	rows := selectedRows(tbl, sel, 1)
	fields, err := refPlanKeyFields(tbl, spec.Keys)
	if err != nil {
		return nil, err
	}
	totalBits, totalBytes := 0, 0
	for _, f := range fields {
		totalBits += f.Bits
		totalBytes += f.Bytes
	}
	ref := &refChain{fields: fields, hashes: make([]uint64, len(rows))}
	if totalBits > 63 {
		ref.wideKeys = make([][]byte, len(rows))
		for i, r := range rows {
			key := make([]byte, totalBytes)
			for _, f := range fields {
				refEncodeWideField(tbl, f, int(r), key[f.ByteOffset:f.ByteOffset+f.Bytes])
			}
			ref.wideKeys[i] = key
			ref.hashes[i] = murmur.Sum64(key, 0x5bd1e995)
		}
	} else {
		ref.keys = make([]uint64, len(rows))
		for i, r := range rows {
			var key uint64
			for _, f := range fields {
				key |= refNarrowCode(tbl, f, int(r)) << uint(f.BitOffset)
			}
			ref.keys[i] = key
			ref.hashes[i] = murmur.Sum64Uint64(key, 0x5bd1e995)
		}
	}
	for _, a := range spec.Aggs {
		aspec, payload, err := refBuildPayload(tbl, rows, a)
		if err != nil {
			return nil, err
		}
		ref.aggs = append(ref.aggs, aspec)
		ref.payloads = append(ref.payloads, payload)
	}
	return ref, nil
}

func refPlanKeyFields(tbl *columnar.Table, keys []string) ([]KeyField, error) {
	fields := make([]KeyField, 0, len(keys))
	bitOff, byteOff := 0, 0
	for _, name := range keys {
		col := tbl.Column(name)
		if col == nil {
			return nil, fmt.Errorf("evaluator: unknown grouping column %q", name)
		}
		f := KeyField{Column: name, Type: col.Type(), BitOffset: bitOff, ByteOffset: byteOff}
		for i := 0; i < col.Len(); i++ {
			if col.IsNull(i) {
				f.HasNull = true
				break
			}
		}
		switch c := col.(type) {
		case *columnar.StringColumn:
			f.Dict = c
			span := uint64(c.DictSize())
			if f.HasNull {
				span++
			}
			f.Bits = bitsFor(span)
			f.Bytes = 4
		case *columnar.Int64Column:
			minV, maxV := int64(math.MaxInt64), int64(math.MinInt64)
			for i := 0; i < c.Len(); i++ {
				if !c.IsNull(i) {
					minV, maxV = min(minV, c.Int64(i)), max(maxV, c.Int64(i))
				}
			}
			if minV > maxV {
				minV, maxV = 0, 0
			}
			f.MinI = minV
			// The highest code in exact arithmetic: no int64 overflow.
			maxCode := new(big.Int).Sub(big.NewInt(maxV), big.NewInt(minV))
			if f.HasNull {
				maxCode.Add(maxCode, big.NewInt(1))
			}
			f.Bits, f.Bytes = max(1, maxCode.BitLen()), 8
			if maxCode.Cmp(new(big.Int).SetUint64(math.MaxUint64)) >= 0 {
				f.Bits, f.Bytes = 65, 9
			}
		case *columnar.Float64Column:
			f.Bits = 64
			f.Bytes = 8
		}
		bitOff += f.Bits
		byteOff += f.Bytes
		fields = append(fields, f)
	}
	return fields, nil
}

func refNarrowCode(tbl *columnar.Table, f KeyField, r int) uint64 {
	col := tbl.Column(f.Column)
	if col.IsNull(r) {
		return 0
	}
	var code uint64
	switch c := col.(type) {
	case *columnar.StringColumn:
		code = uint64(c.Code(r))
	case *columnar.Int64Column:
		code = uint64(c.Int64(r) - f.MinI)
	}
	if f.HasNull {
		code++
	}
	return code
}

func refEncodeWideField(tbl *columnar.Table, f KeyField, r int, dst []byte) {
	col := tbl.Column(f.Column)
	if f.Bytes == 9 {
		// A code would reach 2^64-1: a non-NULL flag byte, then the
		// rebased value.
		if !col.IsNull(r) {
			dst[0] = 1
			binary.LittleEndian.PutUint64(dst[1:], uint64(col.(*columnar.Int64Column).Int64(r))-uint64(f.MinI))
		}
		return
	}
	var code uint64
	if col.IsNull(r) {
		if f.Type == columnar.Float64 {
			code = floatNullCode
		}
	} else {
		switch c := col.(type) {
		case *columnar.StringColumn:
			code = uint64(c.Code(r))
			if f.HasNull {
				code++
			}
		case *columnar.Int64Column:
			code = uint64(c.Int64(r) - f.MinI)
			if f.HasNull {
				code++
			}
		case *columnar.Float64Column:
			code = math.Float64bits(c.Float64(r))
		}
	}
	switch f.Bytes {
	case 4:
		binary.LittleEndian.PutUint32(dst, uint32(code))
	default:
		binary.LittleEndian.PutUint64(dst, code)
	}
}

func refBuildPayload(tbl *columnar.Table, rows []int32, a AggColumn) (groupby.AggSpec, []uint64, error) {
	if a.Kind == groupby.Count && a.Column == "" {
		return groupby.AggSpec{Kind: groupby.Count}, nil, nil
	}
	col := tbl.Column(a.Column)
	payload := make([]uint64, len(rows))
	if a.Kind == groupby.Count {
		for i, r := range rows {
			if !col.IsNull(int(r)) {
				payload[i] = 1
			}
		}
		return groupby.AggSpec{Kind: groupby.Sum, Type: columnar.Int64}, payload, nil
	}
	spec := groupby.AggSpec{Kind: a.Kind, Type: col.Type()}
	identity := spec.InitWord()
	for i, r := range rows {
		switch c := col.(type) {
		case *columnar.Int64Column:
			payload[i] = uint64(c.Int64(int(r)))
		case *columnar.Float64Column:
			payload[i] = math.Float64bits(c.Float64(int(r)))
		}
		if col.IsNull(int(r)) {
			payload[i] = identity
		}
	}
	return spec, payload, nil
}

// chainTable has narrow and wide int keys, string and float keys, each
// with and without NULLs, plus two int columns with no NULL row: one
// carrying a null bitmap with no bit set, and one gathered from a source
// whose only NULL lies outside the gathered rows. Two more int columns
// cycle through MinInt64, MaxInt64, 0, 0, one with every fourth row
// NULL: their codes would reach 2^64-1.
func chainTable(n int, seed int64) *columnar.Table {
	rng := rand.New(rand.NewSource(seed))
	small := make([]int64, n)
	nullable := make([]int64, n)
	wideInts := make([]int64, n)
	floats := make([]float64, n)
	fnull := make([]float64, n)
	extremes := make([]int64, n)
	extremeNulls := columnar.NewBitmap(n)
	sb, snb := columnar.NewStringBuilder("s"), columnar.NewStringBuilder("s_null")
	intNulls, floatNulls := columnar.NewBitmap(n), columnar.NewBitmap(n)
	for r := 0; r < n; r++ {
		small[r] = int64(rng.Intn(12)) - 3
		nullable[r] = int64(rng.Intn(50)) + 1000
		wideInts[r] = rng.Int63() - rng.Int63()
		floats[r] = float64(rng.Intn(9)) * 0.5
		fnull[r] = rng.NormFloat64()
		sb.Append(fmt.Sprintf("v%02d", rng.Intn(20)))
		if rng.Intn(6) == 0 {
			snb.AppendNull()
		} else {
			snb.Append(fmt.Sprintf("w%d", rng.Intn(7)))
		}
		if rng.Intn(5) == 0 {
			// A NULL row's payload lies outside the non-NULL range, so a
			// min/max scan that reads it shifts MinI and Bits.
			intNulls.Set(r)
			nullable[r] = -1 << 40
		}
		if rng.Intn(4) == 0 {
			floatNulls.Set(r)
		}
		extremes[r] = []int64{math.MinInt64, math.MaxInt64, 0, 0}[r%4]
		if r%4 == 3 {
			extremeNulls.Set(r)
		}
	}
	// gathered: a column whose single NULL sits in an extra row that the
	// gather leaves out.
	src := columnar.NewInt64Column("gathered", append(append([]int64(nil), small...), 99), nil)
	srcNulls := columnar.NewBitmap(n + 1)
	srcNulls.Set(n)
	src = columnar.NewInt64Column("gathered", src.Data(), srcNulls)
	gathered := columnar.GatherColumn(src, "gathered", columnar.IotaRows(n, 1))
	return columnar.MustNewTable("chain",
		columnar.NewInt64Column("i_small", small, nil),
		columnar.NewInt64Column("i_null", nullable, intNulls),
		columnar.NewInt64Column("i_wide", wideInts, nil),
		columnar.NewInt64Column("i_empty_bitmap", nullable, columnar.NewBitmap(n)),
		gathered,
		columnar.NewInt64Column("i_extreme", extremes, nil),
		columnar.NewInt64Column("i_extreme_null", extremes, extremeNulls),
		columnar.NewFloat64Column("f", floats, nil),
		columnar.NewFloat64Column("f_null", fnull, floatNulls),
		sb.Build(), snb.Build(),
	)
}

// TestBuildInputMatchesReference checks the typed CCAT/LCOV/HASH loops
// against the per-row reference chain: identical key fields (HasNull,
// Bits, MinI included), narrow and wide keys, hashes and payloads, at
// degrees 1/2/8, with and without a selection.
func TestBuildInputMatchesReference(t *testing.T) {
	aggs := []AggColumn{
		{Kind: groupby.Count},
		{Kind: groupby.Count, Column: "i_null"},
		{Kind: groupby.Sum, Column: "i_null"},
		{Kind: groupby.Max, Column: "i_small"},
		{Kind: groupby.Min, Column: "f_null"},
		{Kind: groupby.Sum, Column: "f"},
		{Kind: groupby.Sum, Column: "i_empty_bitmap"},
	}
	keySets := []struct {
		keys []string
		wide bool
	}{
		{[]string{"i_small"}, false},
		{[]string{"i_small", "s"}, false},
		{[]string{"s_null"}, false},
		{[]string{"i_null", "s_null", "s"}, false},
		{[]string{"i_empty_bitmap", "gathered"}, false},
		{[]string{"i_wide", "i_small"}, true},
		{[]string{"f"}, true},
		{[]string{"f_null", "s_null"}, true},
		{[]string{"s", "i_null", "f_null", "i_empty_bitmap"}, true},
		{[]string{"i_extreme"}, true},
		{[]string{"s_null", "i_extreme_null", "i_small"}, true},
	}
	for _, n := range []int{0, 1, 63, 64, 65, 2*evalGrain + 65, 5000} {
		tbl := chainTable(n, int64(n)+1)
		sel := columnar.NewBitmap(n)
		for r := 0; r < n; r++ {
			if r%5 != 2 {
				sel.Set(r)
			}
		}
		for _, ks := range keySets {
			spec := Spec{Keys: ks.keys, Aggs: aggs}
			for _, s := range []*columnar.Bitmap{nil, sel} {
				ref, err := referenceChain(tbl, s, spec)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range testDegrees {
					label := fmt.Sprintf("n=%d keys=%v sel=%v degree=%d", n, ks.keys, s != nil, d)
					res, err := BuildInput(tbl, s, spec, Deps{Model: vtime.Default(), Degree: d})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					in := res.Input
					// Fewer than two rows leave i_wide and i_extreme one-value spans.
					if wide := in.Keys == nil; n >= 2 && wide != ks.wide {
						t.Fatalf("%s: wide = %v, want %v", label, wide, ks.wide)
					}
					checks := []struct {
						name      string
						got, want any
					}{
						{"Fields", res.Fields, ref.fields},
						{"Keys", in.Keys, ref.keys},
						{"WideKeys", in.WideKeys, ref.wideKeys},
						{"Hashes", in.Hashes, ref.hashes},
						{"Aggs", in.Aggs, ref.aggs},
						{"Payloads", in.Payloads, ref.payloads},
					}
					for _, c := range checks {
						if !reflect.DeepEqual(c.got, c.want) {
							t.Fatalf("%s: %s differ from the per-row reference", label, c.name)
						}
					}
				}
			}
		}
	}
}

// BenchmarkBuildInput measures the host chain (LCOG, CCAT, LCOV, HASH)
// over a 144k-row selection: a narrow two-column int+string key and a
// wide key with a float field, each with two payloads. The degree is
// GOMAXPROCS, so -cpu sets it.
func BenchmarkBuildInput(b *testing.B) {
	tbl := chainTable(144000, 5)
	for _, bc := range []struct {
		name string
		keys []string
	}{
		{"narrow", []string{"i_null", "s"}},
		{"wide", []string{"s_null", "f_null", "i_small"}},
	} {
		spec := Spec{Keys: bc.keys, Aggs: []AggColumn{{Kind: groupby.Sum, Column: "i_null"}, {Kind: groupby.Min, Column: "f"}}}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := BuildInput(tbl, nil, spec, Deps{Model: vtime.Default()})
				if err != nil {
					b.Fatal(err)
				}
				benchInput = res.Input
			}
		})
	}
}

var benchInput *groupby.Input
