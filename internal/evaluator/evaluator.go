// Package evaluator implements the BLU group-by evaluator chain of the
// paper's Figures 1 and 2. The host-side evaluators — LCOG/LCOV (load
// grouping keys and payloads), CCAT (concatenate multi-column keys), HASH
// (hash grouping keys, feeding the KMV group estimator) and MEMCPY (stage
// the vectors into the pinned host segment) — transform a columnar table
// plus a selection into the groupby.Input the kernels consume. The LGHT
// and aggregation evaluators of the original CPU chain live in
// groupby.RunCPU.
package evaluator

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"blugpu/internal/columnar"
	"blugpu/internal/groupby"
	"blugpu/internal/hostmem"
	"blugpu/internal/kmv"
	"blugpu/internal/monitor"
	"blugpu/internal/murmur"
	"blugpu/internal/parallel"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// evalGrain is the minimum rows per worker for the parallel evaluators.
const evalGrain = 1024

// AggColumn is one aggregation request: a function over a column.
// Count with an empty column is COUNT(*); Count with a column is
// rewritten to SUM(col IS NOT NULL) so NULLs are not counted.
type AggColumn struct {
	Kind   groupby.AggKind
	Column string
}

// Spec describes one group-by/aggregation.
type Spec struct {
	// Keys are the grouping columns.
	Keys []string
	// Aggs are the aggregation functions.
	Aggs []AggColumn
}

// Deps carries the chain's environment.
type Deps struct {
	// Model is the cost model (required).
	Model *vtime.CostModel
	// Degree is host parallelism for the evaluators.
	Degree int
	// Monitor receives per-evaluator timings; may be nil.
	Monitor *monitor.Monitor
	// Registry is the pinned host segment for MEMCPY staging; nil or
	// exhausted falls back to unregistered memory (slow transfers).
	Registry *hostmem.Registry
	// Stage selects the GPU-bound chain of Figure 2 (with the MEMCPY
	// evaluator). When false, the chain matches Figure 1's CPU shape: no
	// staging happens and no MEMCPY time is charged. The optimizer picks
	// the chain up front from its estimates.
	Stage bool
	// Trace is the parent span for per-evaluator stage spans
	// (LCOG/CCAT/LCOV/HASH/MEMCPY); the zero value disables them.
	Trace trace.Context
	// TraceAt is the virtual-time offset the chain starts at; stage spans
	// lay out sequentially from here.
	TraceAt vtime.Time
}

// KeyField describes how one grouping column is packed into the key.
type KeyField struct {
	Column string
	Type   columnar.Type
	// BitOffset/Bits locate the field in a narrow packed key.
	BitOffset, Bits int
	// ByteOffset/Bytes locate the field in a wide concatenated key:
	// 4 bytes for strings, 8 for ints and floats, flaggedIntBytes for an
	// int field whose codes would reach 2^64-1.
	ByteOffset, Bytes int
	// MinI rebases Int64 fields (code = value - MinI) in narrow keys.
	MinI int64
	// Dict decodes String fields.
	Dict *columnar.StringColumn
	// HasNull reports whether a NULL code was reserved (code 0; real
	// codes shift up by one).
	HasNull bool
}

// Result is the chain's output: a kernel-ready input plus everything
// needed to decode group keys and account the work.
type Result struct {
	// Input is ready for groupby.RunCPU / groupby.RunGPU.
	Input *groupby.Input
	// Fields decode packed keys back into column values.
	Fields []KeyField
	// Staged is the pinned staging block (nil when staging fell back to
	// unregistered memory). The caller releases it after the kernel call.
	Staged *hostmem.Block
	// Pinned reports whether MEMCPY landed in the registered segment.
	Pinned bool
	// Modeled is total host evaluator time (LCOG+LCOV+CCAT+HASH+MEMCPY).
	Modeled vtime.Duration
}

// BuildInput runs the host evaluator chain over the selected rows of tbl.
// sel may be nil to select every row.
func BuildInput(tbl *columnar.Table, sel *columnar.Bitmap, spec Spec, deps Deps) (*Result, error) {
	if deps.Model == nil {
		return nil, errors.New("evaluator: Deps.Model is required")
	}
	// An unset degree means "use the machine", not "run sequentially":
	// the evaluators are the paper's parallel host threads.
	deps.Degree = parallel.Degree(deps.Degree)
	if len(spec.Keys) == 0 {
		return nil, errors.New("evaluator: at least one grouping column required")
	}

	rows := selectedRows(tbl, sel, deps.Degree)
	n := len(rows)
	at := deps.TraceAt
	record := func(name string, nrows int64, d vtime.Duration) {
		if deps.Monitor != nil {
			deps.Monitor.RecordEvaluator(name, nrows, d)
		}
		if deps.Trace.Enabled() {
			deps.Trace.Emit("eval", name, at, d, trace.Int("rows", nrows))
			at = at.Add(d)
		}
	}

	// --- LCOG: load grouping key columns, compute field geometry ---
	fields, vecs, err := planKeyFields(tbl, spec.Keys, deps.Degree)
	if err != nil {
		return nil, err
	}
	lcogT := deps.Model.CPUTime(float64(n*len(spec.Keys)), deps.Model.CPUScanRate, deps.Degree)
	record("LCOG", int64(n), lcogT)

	totalBits := 0
	totalBytes := 0
	for _, f := range fields {
		totalBits += f.Bits
		totalBytes += f.Bytes
	}
	wide := totalBits > 63

	in := &groupby.Input{NumRows: n}
	var ccatT vtime.Duration
	// Each worker packs a disjoint row range into preallocated vectors,
	// one field at a time, so parallel CCAT output is bit-identical to
	// the sequential pack.
	if wide {
		in.KeyBytes = totalBytes
		in.WideKeys = make([][]byte, n)
		flat := make([]byte, n*totalBytes)
		parallel.For(n, evalGrain, deps.Degree, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				in.WideKeys[i] = flat[i*totalBytes : (i+1)*totalBytes]
			}
			for fi, f := range fields {
				putWide(flat[lo*totalBytes:hi*totalBytes], totalBytes, rows[lo:hi], f, vecs[fi])
			}
		})
		ccatT = deps.Model.CPUTime(float64(n*len(fields)), deps.Model.CPUExprRate, deps.Degree)
	} else {
		in.KeyBytes = 8
		in.KeyBits = totalBits
		in.Keys = make([]uint64, n)
		parallel.For(n, evalGrain, deps.Degree, func(lo, hi, _ int) {
			for fi, f := range fields {
				orNarrow(in.Keys[lo:hi], rows[lo:hi], f, vecs[fi])
			}
		})
		if len(fields) > 1 {
			ccatT = deps.Model.CPUTime(float64(n*len(fields)), deps.Model.CPUExprRate, deps.Degree)
		}
	}
	record("CCAT", int64(n), ccatT)

	// --- LCOV + aggregation specs ---
	var lcovRows int64
	for _, a := range spec.Aggs {
		aspec, payload, err := buildPayload(tbl, rows, a, deps.Degree)
		if err != nil {
			return nil, err
		}
		in.Aggs = append(in.Aggs, aspec)
		in.Payloads = append(in.Payloads, payload)
		if payload != nil {
			lcovRows += int64(n)
		}
	}
	lcovT := deps.Model.CPUTime(float64(lcovRows), deps.Model.CPUScanRate, deps.Degree)
	record("LCOV", lcovRows, lcovT)

	// --- HASH + KMV ---
	// Each worker hashes its row range into a private KMV sketch; the
	// sketches merge at the end. The union of per-part k-minimum sets
	// contains the global k minima, and merging is order-independent,
	// so the estimate is identical to the sequential sketch's.
	in.Hashes = make([]uint64, n)
	nw := parallel.Workers(n, evalGrain, deps.Degree)
	sketches := make([]*kmv.Sketch, nw)
	for i := range sketches {
		sketches[i] = kmv.MustNew(kmv.DefaultK)
	}
	parallel.For(n, evalGrain, deps.Degree, func(lo, hi, worker int) {
		hs := in.Hashes[lo:hi]
		if wide {
			for i := range hs {
				hs[i] = murmur.Sum64(in.WideKeys[lo+i], 0x5bd1e995)
			}
		} else {
			// The HASH evaluator mixes the packed key into a hashed
			// value; the kernel's "mod hash" then maps it onto the
			// table with a mask. Feeding raw packed codes straight to
			// linear probing would cluster catastrophically —
			// dictionary codes are dense and sequential.
			for i, k := range in.Keys[lo:hi] {
				hs[i] = murmur.Sum64Uint64(k, 0x5bd1e995)
			}
		}
		for _, h := range hs {
			sketches[worker].AddHash(h)
		}
	})
	sketch := kmv.MustNew(kmv.DefaultK)
	for _, sk := range sketches {
		sketch.Merge(sk)
	}
	in.EstGroups = sketch.EstimateUint64()
	hashT := deps.Model.CPUTime(float64(n), deps.Model.CPUExprRate, deps.Degree)
	record("HASH", int64(n), hashT)

	// --- MEMCPY: stage into the pinned segment (GPU chain only) ---
	res := &Result{Input: in, Fields: fields}
	var memcpyT vtime.Duration
	if deps.Stage {
		stagedBytes := groupby.InputDeviceBytes(in)
		if stagedBytes > 0 {
			if deps.Registry != nil {
				if blk, err := deps.Registry.Alloc(int(stagedBytes)); err == nil {
					stageCopy(blk.Bytes(), in, deps.Degree)
					res.Staged = blk
					res.Pinned = true
				}
			}
			memcpyT = deps.Model.HostCopy(stagedBytes, deps.Degree)
			record("MEMCPY", int64(n), memcpyT)
		}
	}

	res.Modeled = lcogT + ccatT + lcovT + hashT + memcpyT
	return res, nil
}

// DecodeKey reconstructs field f's column value from a narrow packed key.
func DecodeKey(key uint64, f KeyField) columnar.Value {
	code := (key >> uint(f.BitOffset)) & ((1 << uint(f.Bits)) - 1)
	return decodeCode(code, f)
}

// DecodeWideKey reconstructs field f's column value from a wide key.
func DecodeWideKey(key []byte, f KeyField) columnar.Value {
	seg := key[f.ByteOffset : f.ByteOffset+f.Bytes]
	var code uint64
	switch f.Bytes {
	case 4:
		code = uint64(binary.LittleEndian.Uint32(seg))
	case flaggedIntBytes:
		if seg[0] == 0 {
			return columnar.NullValue(f.Type)
		}
		return columnar.IntValue(int64(binary.LittleEndian.Uint64(seg[1:])) + f.MinI)
	default:
		code = binary.LittleEndian.Uint64(seg)
	}
	if f.Type == columnar.Float64 {
		if f.HasNull && code == floatNullCode {
			return columnar.NullValue(columnar.Float64)
		}
		return columnar.FloatValue(math.Float64frombits(code))
	}
	return decodeCode(code, f)
}

// floatNullCode marks NULL in float key fields: a NaN bit pattern that
// arithmetic never produces (quiet NaNs are 0x7FF8...0). Shifting float
// codes like int codes would alias adjacent bit patterns.
const floatNullCode = ^uint64(0)

func decodeCode(code uint64, f KeyField) columnar.Value {
	if f.HasNull {
		if code == 0 {
			return columnar.NullValue(f.Type)
		}
		code--
	}
	switch f.Type {
	case columnar.String:
		return columnar.StringValue(f.Dict.Decode(int32(code)))
	case columnar.Float64:
		return columnar.FloatValue(math.Float64frombits(code))
	default:
		return columnar.IntValue(int64(code) + f.MinI)
	}
}

// --- helpers ---

func selectedRows(tbl *columnar.Table, sel *columnar.Bitmap, degree int) []int32 {
	if sel == nil {
		return columnar.IotaRows(tbl.Rows(), degree)
	}
	return sel.IndicesDegree(degree)
}

// colVec is a key or payload column resolved once to its typed vector
// and null-bitmap words, so the per-row loops index slices directly.
type colVec struct {
	ints   []int64
	floats []float64
	codes  []int32
	nulls  []uint64 // nil when the column has no null bitmap
}

func vecOf(col columnar.Column) colVec {
	var v colVec
	switch c := col.(type) {
	case *columnar.Int64Column:
		v.ints, v.nulls = c.Data(), c.Nulls().Words()
	case *columnar.Float64Column:
		v.floats, v.nulls = c.Data(), c.Nulls().Words()
	case *columnar.StringColumn:
		v.codes, v.nulls = c.Codes(), c.Nulls().Words()
	}
	return v
}

// anyNull reports whether some row is NULL: a bitmap may exist with no
// bit set, and that column must not reserve a NULL code.
func (v colVec) anyNull() bool {
	for _, w := range v.nulls {
		if w != 0 {
			return true
		}
	}
	return false
}

// planKeyFields computes per-column packing geometry and resolves each
// key column's vectors. Int columns are rebased to their min so the
// code fits the value range; string columns use dictionary codes. A
// NULL code is reserved when the column has nulls.
func planKeyFields(tbl *columnar.Table, keys []string, degree int) ([]KeyField, []colVec, error) {
	fields := make([]KeyField, 0, len(keys))
	vecs := make([]colVec, 0, len(keys))
	bitOff, byteOff := 0, 0
	for _, name := range keys {
		col := tbl.Column(name)
		if col == nil {
			return nil, nil, fmt.Errorf("evaluator: unknown grouping column %q", name)
		}
		v := vecOf(col)
		f := KeyField{Column: name, Type: col.Type(), BitOffset: bitOff, ByteOffset: byteOff, HasNull: v.anyNull()}
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
			minV, maxV := columnMinMax(v, degree)
			f.MinI = minV
			f.Bits, f.Bytes = intFieldWidth(uint64(maxV)-uint64(minV), f.HasNull)
		case *columnar.Float64Column:
			f.Bits = 64 // floats group by raw bits: always the wide path
			f.Bytes = 8
		default:
			return nil, nil, fmt.Errorf("evaluator: unsupported key column type %v", col.Type())
		}
		bitOff += f.Bits
		byteOff += f.Bytes
		fields = append(fields, f)
		vecs = append(vecs, v)
	}
	return fields, vecs, nil
}

// columnMinMax scans an int column for its non-null value range, a
// null-bitmap word at a time, with per-worker partial minima/maxima
// reduced in worker order (min/max are exact and commutative, so the
// result is degree-independent). Worker ranges start on word bounds.
func columnMinMax(v colVec, degree int) (minV, maxV int64) {
	data := v.ints
	nw := parallel.Workers(len(data), evalGrain, degree)
	mins := make([]int64, nw)
	maxs := make([]int64, nw)
	anys := make([]bool, nw)
	parallel.For(len(data), evalGrain, degree, func(lo, hi, worker int) {
		mn, mx := int64(math.MaxInt64), int64(math.MinInt64)
		any := false
		for base := lo; base < hi; base += 64 {
			end := min(base+64, hi)
			var nullWord uint64
			if v.nulls != nil {
				nullWord = v.nulls[base>>6]
			}
			if nullWord == 0 {
				for _, x := range data[base:end] {
					mn, mx = min(mn, x), max(mx, x)
				}
				any = true
				continue
			}
			valid := ^nullWord
			if end-base < 64 {
				valid &= 1<<uint(end-base) - 1
			}
			for ; valid != 0; valid &= valid - 1 {
				x := data[base+bits.TrailingZeros64(valid)]
				mn, mx = min(mn, x), max(mx, x)
				any = true
			}
		}
		mins[worker], maxs[worker], anys[worker] = mn, mx, any
	})
	minV, maxV = int64(math.MaxInt64), int64(math.MinInt64)
	any := false
	for w := 0; w < nw; w++ {
		if !anys[w] {
			continue
		}
		any = true
		minV, maxV = min(minV, mins[w]), max(maxV, maxs[w])
	}
	if !any {
		return 0, 0
	}
	return minV, maxV
}

// orNarrow ORs field f's packed code for each row of rs into the
// matching entry of keys; a NULL row contributes code 0.
func orNarrow(keys []uint64, rs []int32, f KeyField, v colVec) {
	nulls, add, shift := v.nulls, uint64(0), uint(f.BitOffset)
	if f.HasNull {
		add = 1
	}
	switch f.Type {
	case columnar.String:
		for i, r := range rs {
			if !columnar.NullAt(nulls, int(r)) {
				keys[i] |= (uint64(v.codes[r]) + add) << shift
			}
		}
	case columnar.Int64:
		for i, r := range rs {
			if !columnar.NullAt(nulls, int(r)) {
				keys[i] |= (uint64(v.ints[r]-f.MinI) + add) << shift
			}
		}
	}
}

// putWide writes field f's fixed-width encoding for each row of rs into
// its width-byte key in flat. NULL is code 0, or floatNullCode for
// float fields.
func putWide(flat []byte, width int, rs []int32, f KeyField, v colVec) {
	nulls, add := v.nulls, uint64(0)
	if f.HasNull {
		add = 1
	}
	switch f.Type {
	case columnar.String:
		for i, r := range rs {
			var code uint32
			if !columnar.NullAt(nulls, int(r)) {
				code = uint32(uint64(v.codes[r]) + add)
			}
			binary.LittleEndian.PutUint32(flat[i*width+f.ByteOffset:], code)
		}
	case columnar.Int64:
		if f.Bytes == flaggedIntBytes {
			for i, r := range rs {
				var flag byte
				var code uint64
				if !columnar.NullAt(nulls, int(r)) {
					flag, code = 1, uint64(v.ints[r]-f.MinI)
				}
				seg := flat[i*width+f.ByteOffset:]
				seg[0] = flag
				binary.LittleEndian.PutUint64(seg[1:], code)
			}
			return
		}
		for i, r := range rs {
			var code uint64
			if !columnar.NullAt(nulls, int(r)) {
				code = uint64(v.ints[r]-f.MinI) + add
			}
			binary.LittleEndian.PutUint64(flat[i*width+f.ByteOffset:], code)
		}
	case columnar.Float64:
		for i, r := range rs {
			code := floatNullCode
			if !columnar.NullAt(nulls, int(r)) {
				code = math.Float64bits(v.floats[r])
			}
			binary.LittleEndian.PutUint64(flat[i*width+f.ByteOffset:], code)
		}
	}
}

// buildPayload materializes one aggregate's payload vector. NULL inputs
// become the aggregate's identity so they cannot affect the result;
// COUNT(col) is rewritten to SUM(0/1).
func buildPayload(tbl *columnar.Table, rows []int32, a AggColumn, degree int) (groupby.AggSpec, []uint64, error) {
	if a.Kind == groupby.Count && a.Column == "" {
		return groupby.AggSpec{Kind: groupby.Count}, nil, nil
	}
	col := tbl.Column(a.Column)
	if col == nil {
		return groupby.AggSpec{}, nil, fmt.Errorf("evaluator: unknown aggregate column %q", a.Column)
	}
	v := vecOf(col)
	nulls := v.nulls
	payload := make([]uint64, len(rows))
	if a.Kind == groupby.Count {
		// COUNT(col): sum 1 for non-null rows.
		parallel.For(len(rows), evalGrain, degree, func(lo, hi, _ int) {
			for i, r := range rows[lo:hi] {
				if !columnar.NullAt(nulls, int(r)) {
					payload[lo+i] = 1
				}
			}
		})
		return groupby.AggSpec{Kind: groupby.Sum, Type: columnar.Int64}, payload, nil
	}
	spec := groupby.AggSpec{Kind: a.Kind}
	switch col.Type() {
	case columnar.Int64:
		spec.Type = columnar.Int64
	case columnar.Float64:
		spec.Type = columnar.Float64
	default:
		return groupby.AggSpec{}, nil, fmt.Errorf("evaluator: cannot aggregate %v column %q", col.Type(), a.Column)
	}
	identity := spec.InitWord()
	parallel.For(len(rows), evalGrain, degree, func(lo, hi, _ int) {
		out, rs := payload[lo:hi], rows[lo:hi]
		if spec.Type == columnar.Int64 {
			for i, r := range rs {
				out[i] = uint64(v.ints[r])
			}
		} else {
			for i, r := range rs {
				out[i] = math.Float64bits(v.floats[r])
			}
		}
		if nulls != nil {
			for i, r := range rs {
				if columnar.NullAt(nulls, int(r)) {
					out[i] = identity
				}
			}
		}
	})
	return spec, payload, nil
}

// stageCopy writes the kernel input vectors into the pinned block — the
// MEMCPY evaluator's actual byte traffic. Every row's destination offset
// is computable up front (keys, then hashes, then payloads, 8-byte
// words), so workers copy disjoint regions and the staged bytes are
// identical to a sequential copy.
func stageCopy(dst []byte, in *groupby.Input, degree int) {
	put := func(off int, v uint64) {
		if off+8 <= len(dst) {
			binary.LittleEndian.PutUint64(dst[off:], v)
		}
	}
	n := in.NumRows
	off := 0
	if in.Wide() {
		wpk := (in.KeyBytes + 7) / 8 // words per padded wide key
		parallel.For(n, evalGrain, degree, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				k := in.WideKeys[i]
				o := off + i*wpk*8
				for len(k) >= 8 {
					put(o, binary.LittleEndian.Uint64(k))
					k = k[8:]
					o += 8
				}
				if len(k) > 0 {
					var tail [8]byte
					copy(tail[:], k)
					put(o, binary.LittleEndian.Uint64(tail[:]))
				}
			}
		})
		off += n * wpk * 8
	} else {
		parallel.For(n, evalGrain, degree, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				put(off+i*8, in.Keys[i])
			}
		})
		off += n * 8
	}
	parallel.For(n, evalGrain, degree, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			put(off+i*8, in.Hashes[i])
		}
	})
	off += len(in.Hashes) * 8
	for _, p := range in.Payloads {
		p := p
		base := off
		parallel.For(len(p), evalGrain, degree, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				put(base+i*8, p[i])
			}
		})
		off += len(p) * 8
	}
}

func bitsFor(span uint64) int {
	if span <= 1 {
		return 1
	}
	return bits.Len64(span - 1)
}

// intFieldWidth sizes an Int64 key field whose values rebase to codes
// 0..maxCode (value - MinI, exact in uint64), all one higher when code
// 0 is reserved for NULL. A code of 2^64-1 — the full int64 range, with
// or without NULL — would wrap NULL's code 0 or, as a wide key's first
// word, equal groupby.EmptyKey; such a field is flaggedIntBytes wide.
func intFieldWidth(maxCode uint64, hasNull bool) (nbits, nbytes int) {
	add := uint64(0)
	if hasNull {
		add = 1
	}
	if maxCode >= math.MaxUint64-add {
		return 65, flaggedIntBytes
	}
	return max(1, bits.Len64(maxCode+add)), 8
}

// flaggedIntBytes is the width of a wide Int64 field whose codes would
// reach 2^64-1: byte 0 is 1 for a value and 0 for NULL, bytes 1..8 the
// rebased value (0 for NULL).
const flaggedIntBytes = 9
