package expr

import (
	"fmt"
	"math/bits"
	"sort"

	"blugpu/internal/columnar"
	"blugpu/internal/parallel"
)

// batch is the evaluation unit of a bound expression: 64 rows, one bitmap
// word. Batches start on multiples of 64, so bit j of a result word is
// row lo+j and null bitmaps are read a word at a time.
const batch = 64

// Bound is an expression bound to one table. Bind resolves its columns,
// checks its types and pre-coerces its literals once; evaluation then
// reads the typed vectors, dictionary codes and null bitmaps directly,
// one batch at a time, with no per-row boxing or lookup. A Bound is
// read-only after Bind, so parallel workers share it.
type Bound struct {
	rows   int
	typ    columnar.Type
	root   *vec
	truth  truthFn
	ints   valuesFn[int64]   // set when typ is Int64
	floats valuesFn[float64] // set when typ is Float64

	// nInts and nFloats are the scratch buffers one worker needs.
	nInts, nFloats int
}

// valuesFn evaluates rows [lo, hi) of a numeric operand, returning the
// values and the word of NULL rows; values at NULL rows are unspecified.
// The returned slice is valid until the next call with the same scratch.
type valuesFn[T int64 | float64] func(sc *scratch, lo, hi int) ([]T, uint64)

// truthFn evaluates a batch under SQL three-valued logic: t holds the
// TRUE rows and f the FALSE rows; a row in neither is NULL.
type truthFn func(sc *scratch, lo, hi int) (t, f uint64)

// scratch holds one worker's batch buffers, one per slot Bind handed out,
// so workers sharing a Bound never share a buffer.
type scratch struct {
	ints   [][batch]int64
	floats [][batch]float64
}

// vec is one bound node in its natural form: exactly one of ints,
// floats, truth, str and lit is set. Booleans (comparisons, logic, IN,
// IS NULL) are truth words; String operands are a column or a literal,
// since no operator yields a string.
type vec struct {
	typ    columnar.Type
	ints   valuesFn[int64]
	floats valuesFn[float64]
	truth  truthFn
	str    *columnar.StringColumn
	lit    *columnar.Value
}

// binder builds the vecs of one Bind and counts the scratch slots their
// conversions claim.
type binder struct {
	tbl            *columnar.Table
	nInts, nFloats int
}

// Bind type-checks e against tbl and binds it to tbl's columns. Every
// node kind binds; semantics are those of Eval, including int-to-float
// widening, NaN comparing equal to everything, NULL on division by zero
// and IN skipping values of another type.
func Bind(tbl *columnar.Table, e Expr) (*Bound, error) {
	typ, err := e.TypeOf(tbl)
	if err != nil {
		return nil, err
	}
	bd := &binder{tbl: tbl}
	root, err := bd.bind(e)
	if err != nil {
		return nil, err
	}
	b := &Bound{rows: tbl.Rows(), typ: typ, root: root, truth: bd.truth(root)}
	switch typ {
	case columnar.Int64:
		b.ints = bd.ints(root)
	case columnar.Float64:
		b.floats = bd.floats(root)
	}
	b.nInts, b.nFloats = bd.nInts, bd.nFloats
	return b, nil
}

// Select returns the rows where the expression is TRUE (FALSE and NULL
// are excluded, per SQL WHERE semantics), evaluated by up to degree
// workers, each writing its own words of the bitmap.
func (b *Bound) Select(degree int) *columnar.Bitmap {
	bm := columnar.NewBitmap(b.rows)
	words := bm.Words()
	b.forBatches(degree, func(sc *scratch, lo, hi int) {
		words[lo/batch], _ = b.truth(sc, lo, hi)
	})
	return bm
}

// Column materializes the expression for every row as a column named
// name: NULL rows hold zero, the null bitmap is nil when no row is NULL,
// and a String column gets the dictionary of the values present plus ""
// when a row is NULL — exactly what the columnar builders produce from
// the row values.
func (b *Bound) Column(name string, degree int) columnar.Column {
	switch b.typ {
	case columnar.Int64:
		data, nulls := make([]int64, b.rows), columnar.NewBitmap(b.rows)
		b.forBatches(degree, func(sc *scratch, lo, hi int) {
			xs, null := b.ints(sc, lo, hi)
			nulls.Words()[lo/batch] = store(data[lo:hi], xs, null)
		})
		return columnar.NewInt64Column(name, data, nilIfEmpty(nulls))
	case columnar.Float64:
		data, nulls := make([]float64, b.rows), columnar.NewBitmap(b.rows)
		b.forBatches(degree, func(sc *scratch, lo, hi int) {
			xs, null := b.floats(sc, lo, hi)
			nulls.Words()[lo/batch] = store(data[lo:hi], xs, null)
		})
		return columnar.NewFloat64Column(name, data, nilIfEmpty(nulls))
	}
	return b.stringColumn(name)
}

// forBatches runs fn over every batch on up to degree workers, each with
// its own scratch. Worker ranges are 64-aligned, so batches never share a
// bitmap word.
func (b *Bound) forBatches(degree int, fn func(sc *scratch, lo, hi int)) {
	parallel.For(b.rows, predicateGrain, degree, func(lo, hi, _ int) {
		sc := &scratch{ints: make([][batch]int64, b.nInts), floats: make([][batch]float64, b.nFloats)}
		for l := lo; l < hi; l += batch {
			fn(sc, l, min(l+batch, hi))
		}
	})
}

// stringColumn materializes a String root, a column or a literal. It runs
// sequentially: no operator computes strings, so this is a copy.
func (b *Bound) stringColumn(name string) *columnar.StringColumn {
	codes := make([]int32, b.rows)
	if v := b.root.lit; v != nil {
		switch {
		case b.rows == 0:
			return columnar.NewStringColumn(name, nil, codes, nil)
		case v.Null:
			return columnar.NewStringColumn(name, []string{""}, codes, columnar.NewBitmapFull(b.rows))
		}
		return columnar.NewStringColumn(name, []string{v.S}, codes, nil)
	}
	src := b.root.str
	srcNulls := src.Nulls()
	used := make([]bool, src.DictSize())
	hasNull := false
	for i, c := range src.Codes() {
		if srcNulls != nil && srcNulls.Get(i) {
			hasNull = true
		} else {
			used[c] = true
		}
	}
	// NULL rows carry "", which sorts first: code 0 either way.
	var dict []string
	if hasNull {
		if len(used) > 0 && src.Decode(0) == "" {
			used[0] = true
		} else {
			dict = append(dict, "")
		}
	}
	remap := make([]int32, len(used))
	for c, u := range used {
		if u {
			remap[c] = int32(len(dict))
			dict = append(dict, src.Decode(int32(c)))
		}
	}
	var nulls *columnar.Bitmap
	if hasNull {
		nulls = srcNulls.Clone()
	}
	for i, c := range src.Codes() {
		if nulls == nil || !nulls.Get(i) {
			codes[i] = remap[c]
		}
	}
	return columnar.NewStringColumn(name, dict, codes, nulls)
}

// --- binding ---

func (b *binder) bind(e Expr) (*vec, error) {
	switch x := e.(type) {
	case *Col:
		return b.col(x.Name)
	case *Lit:
		v := x.Val
		return &vec{typ: v.Type, lit: &v}, nil
	case *Arith:
		return b.arith(x)
	case *Cmp:
		return b.cmp(x.Op, x.Left, x.Right)
	case *Between:
		ge, err := b.cmp(Ge, x.X, x.Lo)
		if err != nil {
			return nil, err
		}
		le, err := b.cmp(Le, x.X, x.Hi)
		if err != nil {
			return nil, err
		}
		return logic(And, ge.truth, le.truth)
	case *Logic:
		l, r, err := b.bindPair(x.Left, x.Right)
		if err != nil {
			return nil, err
		}
		return logic(x.Op, b.truth(l), b.truth(r))
	case *Not:
		in, err := b.bind(x.Inner)
		if err != nil {
			return nil, err
		}
		inner := b.truth(in)
		return &vec{typ: columnar.Int64, truth: func(sc *scratch, lo, hi int) (uint64, uint64) {
			t, f := inner(sc, lo, hi)
			return f, t
		}}, nil
	case *In:
		return b.in(x)
	case *IsNull:
		in, err := b.bind(x.X)
		if err != nil {
			return nil, err
		}
		inner, negate := b.truth(in), x.Negate
		return &vec{typ: columnar.Int64, truth: func(sc *scratch, lo, hi int) (uint64, uint64) {
			m := mask(lo, hi)
			t, f := inner(sc, lo, hi)
			null := ^(t | f) & m
			if negate {
				return ^null & m, null
			}
			return null, ^null & m
		}}, nil
	}
	return nil, fmt.Errorf("expr: cannot bind %T", e)
}

func (b *binder) bindPair(le, re Expr) (l, r *vec, err error) {
	if l, err = b.bind(le); err != nil {
		return nil, nil, err
	}
	if r, err = b.bind(re); err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

func (b *binder) col(name string) (*vec, error) {
	switch c := b.tbl.Column(name).(type) {
	case nil:
		return nil, fmt.Errorf("expr: unknown column %q", name)
	case *columnar.Int64Column:
		data, nulls := c.Data(), words(c.Nulls())
		return &vec{typ: columnar.Int64, ints: func(_ *scratch, lo, hi int) ([]int64, uint64) {
			return data[lo:hi], nullWord(nulls, lo)
		}}, nil
	case *columnar.Float64Column:
		data, nulls := c.Data(), words(c.Nulls())
		return &vec{typ: columnar.Float64, floats: func(_ *scratch, lo, hi int) ([]float64, uint64) {
			return data[lo:hi], nullWord(nulls, lo)
		}}, nil
	case *columnar.StringColumn:
		return &vec{typ: columnar.String, str: c}, nil
	default:
		return nil, fmt.Errorf("expr: cannot bind column %q of type %v", name, c.Type())
	}
}

func (b *binder) arith(a *Arith) (*vec, error) {
	if a.Op < Add || a.Op > Div {
		return nil, fmt.Errorf("expr: unknown arith op %d", a.Op)
	}
	l, r, err := b.bindPair(a.Left, a.Right)
	if err != nil {
		return nil, err
	}
	typ, err := numericResult(l.typ, r.typ)
	if err != nil {
		return nil, fmt.Errorf("expr: %s: %w", a, err)
	}
	if typ == columnar.Float64 {
		slot := b.floatSlot()
		return &vec{typ: typ, floats: arithVec(a.Op, b.floats(l), b.floats(r),
			func(sc *scratch) []float64 { return sc.floats[slot][:] })}, nil
	}
	slot := b.intSlot()
	return &vec{typ: typ, ints: arithVec(a.Op, b.ints(l), b.ints(r),
		func(sc *scratch) []int64 { return sc.ints[slot][:] })}, nil
}

// arithVec computes x op y into the worker's buffer; a row divided by
// zero is NULL.
func arithVec[T int64 | float64](op ArithOp, x, y valuesFn[T], buffer func(*scratch) []T) valuesFn[T] {
	return func(sc *scratch, lo, hi int) ([]T, uint64) {
		xs, nx := x(sc, lo, hi)
		ys, ny := y(sc, lo, hi)
		out := buffer(sc)[:len(xs)]
		divZero := arithInto(op, out, xs, ys)
		return out, nx | ny | divZero
	}
}

// arithInto sets out to xs op ys and returns the rows divided by zero.
func arithInto[T int64 | float64](op ArithOp, out, xs, ys []T) (divZero uint64) {
	xs, ys = xs[:len(out)], ys[:len(out)]
	switch op {
	case Add:
		for j := range out {
			out[j] = xs[j] + ys[j]
		}
	case Sub:
		for j := range out {
			out[j] = xs[j] - ys[j]
		}
	case Mul:
		for j := range out {
			out[j] = xs[j] * ys[j]
		}
	case Div:
		for j := range out {
			if ys[j] == 0 {
				divZero |= 1 << uint(j&63)
				continue
			}
			out[j] = xs[j] / ys[j]
		}
	}
	return divZero
}

// cmp binds l op r. Numbers compare as int64 when both sides are Int64
// and as widened float64 otherwise. Strings compare as int64 keys into
// one side's sorted dictionary (see strKey), so a column against a
// literal is a code comparison against one pre-computed key.
func (b *binder) cmp(op CmpOp, le, re Expr) (*vec, error) {
	l, r, err := b.bindPair(le, re)
	if err != nil {
		return nil, err
	}
	switch {
	case l.typ == columnar.String && r.typ == columnar.String:
		dict := keyDict(l, r)
		return cmpVec(op, b.keys(l, dict), b.keys(r, dict)), nil
	case l.typ == columnar.String || r.typ == columnar.String:
		return nil, fmt.Errorf("expr: (%s %s %s): cannot compare %v with %v", le, op, re, l.typ, r.typ)
	case l.typ == columnar.Int64 && r.typ == columnar.Int64:
		return cmpVec(op, b.ints(l), b.ints(r)), nil
	}
	return cmpVec(op, b.floats(l), b.floats(r)), nil
}

func cmpVec[T int64 | float64](op CmpOp, x, y valuesFn[T]) *vec {
	return &vec{typ: columnar.Int64, truth: func(sc *scratch, lo, hi int) (uint64, uint64) {
		xs, nx := x(sc, lo, hi)
		ys, ny := y(sc, lo, hi)
		var lt, gt uint64
		if op != Gt && op != Le {
			lt = less(xs, ys)
		}
		if op != Lt && op != Ge {
			gt = less(ys, xs)
		}
		bits := opBits(op, lt, gt)
		valid := ^(nx | ny) & mask(lo, hi)
		return bits & valid, ^bits & valid
	}}
}

// less sets bit j where xs[j] < ys[j]. Per-row loops live in plain
// generic functions like this one, not in the closures that call them:
// the compiler does not inline b2u into a closure of an inlined generic
// function, and the call costs several times the comparison.
func less[T int64 | float64](xs, ys []T) uint64 {
	ys = ys[:len(xs)]
	var w uint64
	for j, v := range xs {
		w |= b2u(v < ys[j]) << uint(j&63)
	}
	return w
}

// opBits derives op from the < and > words, so a NaN operand, which is
// neither, compares equal, as Value.Compare has it.
func opBits(op CmpOp, lt, gt uint64) uint64 {
	switch op {
	case Eq:
		return ^(lt | gt)
	case Ne:
		return lt | gt
	case Lt:
		return lt
	case Le:
		return ^gt
	case Gt:
		return gt
	case Ge:
		return ^lt
	}
	return 0
}

func logic(op LogicOp, l, r truthFn) (*vec, error) {
	switch op {
	case And:
		return &vec{typ: columnar.Int64, truth: func(sc *scratch, lo, hi int) (uint64, uint64) {
			lt, lf := l(sc, lo, hi)
			rt, rf := r(sc, lo, hi)
			return lt & rt, lf | rf
		}}, nil
	case Or:
		return &vec{typ: columnar.Int64, truth: func(sc *scratch, lo, hi int) (uint64, uint64) {
			lt, lf := l(sc, lo, hi)
			rt, rf := r(sc, lo, hi)
			return lt | rt, lf & rf
		}}, nil
	}
	return nil, fmt.Errorf("expr: unknown logic op %d", op)
}

// in binds x IN (...). The list is pre-coerced the way Eval's coerce and
// Value.Equal treat each value against x's type: values of an
// incomparable type drop out, and so does a NULL of x's own type, while a
// NULL of the other numeric type compares as its zero payload.
func (b *binder) in(x *In) (*vec, error) {
	v, err := b.bind(x.X)
	if err != nil {
		return nil, err
	}
	var match func(sc *scratch, lo, hi int) (m, null uint64)
	switch v.typ {
	case columnar.String:
		dict := keyDict(v, v)
		var keys []int64
		for _, c := range x.Vals {
			if c.Type == columnar.String && !c.Null {
				if k := strKey(dict, c.S); k&1 == 1 {
					keys = append(keys, k)
				}
			}
		}
		xs := b.keys(v, dict)
		match = func(sc *scratch, lo, hi int) (uint64, uint64) {
			ks, null := xs(sc, lo, hi)
			return anyOf(ks, keys), null
		}
	case columnar.Int64:
		var ints []int64
		var floats []float64
		for _, c := range x.Vals {
			switch {
			case c.Type == columnar.Int64 && !c.Null:
				ints = append(ints, c.I)
			case c.Type == columnar.Float64:
				floats = append(floats, c.F)
			}
		}
		xi := b.ints(v)
		var xf valuesFn[float64]
		if len(floats) > 0 {
			xf = b.floats(v)
		}
		match = func(sc *scratch, lo, hi int) (uint64, uint64) {
			xs, null := xi(sc, lo, hi)
			m := anyOf(xs, ints)
			if xf != nil {
				fs, _ := xf(sc, lo, hi)
				m |= anyOf(fs, floats)
			}
			return m, null
		}
	default:
		var floats []float64
		for _, c := range x.Vals {
			switch {
			case c.Type == columnar.Float64 && !c.Null:
				floats = append(floats, c.F)
			case c.Type == columnar.Int64:
				floats = append(floats, float64(c.I))
			}
		}
		xf := b.floats(v)
		match = func(sc *scratch, lo, hi int) (uint64, uint64) {
			xs, null := xf(sc, lo, hi)
			return anyOf(xs, floats), null
		}
	}
	return &vec{typ: columnar.Int64, truth: func(sc *scratch, lo, hi int) (uint64, uint64) {
		m, null := match(sc, lo, hi)
		valid := ^null & mask(lo, hi)
		return m & valid, ^m & valid
	}}, nil
}

// --- conversions between forms ---

func (b *binder) intSlot() int   { b.nInts++; return b.nInts - 1 }
func (b *binder) floatSlot() int { b.nFloats++; return b.nFloats - 1 }

// ints is an Int64 operand's values; a boolean reads as 1/0.
func (b *binder) ints(v *vec) valuesFn[int64] {
	switch {
	case v.ints != nil:
		return v.ints
	case v.lit != nil:
		return constant(v.lit.I, v.lit.Null)
	}
	t, slot := v.truth, b.intSlot()
	return func(sc *scratch, lo, hi int) ([]int64, uint64) {
		out := sc.ints[slot][:hi-lo]
		tw, fw := t(sc, lo, hi)
		for j := range out {
			out[j] = int64(tw >> uint(j) & 1)
		}
		return out, ^(tw | fw)
	}
}

// floats is a numeric operand's values, widening Int64 as asFloat does.
func (b *binder) floats(v *vec) valuesFn[float64] {
	switch {
	case v.floats != nil:
		return v.floats
	case v.lit != nil:
		return constant(asFloat(*v.lit), v.lit.Null)
	}
	src, slot := b.ints(v), b.floatSlot()
	return func(sc *scratch, lo, hi int) ([]float64, uint64) {
		xs, null := src(sc, lo, hi)
		out := sc.floats[slot][:len(xs)]
		for j, x := range xs {
			out[j] = float64(x)
		}
		return out, null
	}
}

// truth is an operand read as a boolean, as the truth helper reads a
// value: a non-zero (or NaN) number is TRUE, a string FALSE.
func (b *binder) truth(v *vec) truthFn {
	switch {
	case v.truth != nil:
		return v.truth
	case v.lit != nil:
		tv := truth(*v.lit)
		return func(_ *scratch, lo, hi int) (uint64, uint64) {
			switch tv {
			case tTrue:
				return mask(lo, hi), 0
			case tFalse:
				return 0, mask(lo, hi)
			}
			return 0, 0
		}
	case v.str != nil:
		nulls := words(v.str.Nulls())
		return func(_ *scratch, lo, hi int) (uint64, uint64) {
			return 0, ^nullWord(nulls, lo) & mask(lo, hi)
		}
	case v.typ == columnar.Float64:
		return nonZero(b.floats(v))
	}
	return nonZero(b.ints(v))
}

func nonZero[T int64 | float64](x valuesFn[T]) truthFn {
	return func(sc *scratch, lo, hi int) (uint64, uint64) {
		xs, null := x(sc, lo, hi)
		nz := nonZeroBits(xs)
		valid := ^null & mask(lo, hi)
		return nz & valid, ^nz & valid
	}
}

func nonZeroBits[T int64 | float64](xs []T) uint64 {
	var nz uint64
	for j, v := range xs {
		nz |= b2u(v != 0) << uint(j&63)
	}
	return nz
}

// keyDict picks the dictionary two String operands are keyed against: a
// column's, or else a literal's one-entry dictionary.
func keyDict(l, r *vec) []string {
	switch {
	case l.str != nil:
		return l.str.Dict()
	case r.str != nil:
		return r.str.Dict()
	case !r.lit.Null:
		return []string{r.lit.S}
	case !l.lit.Null:
		return []string{l.lit.S}
	}
	return nil
}

// strKey orders s against the sorted dict: 2i+1 when s is dict[i], and 2i
// when s falls between dict[i-1] and dict[i]. Keys of two strings compare
// as the strings do whenever one of them is in dict.
func strKey(dict []string, s string) int64 {
	i := sort.SearchStrings(dict, s)
	k := 2 * int64(i)
	if i < len(dict) && dict[i] == s {
		k++
	}
	return k
}

// keys is a String operand's strKeys against dict. A column keyed against
// its own dictionary maps code c to 2c+1 without searching.
func (b *binder) keys(v *vec, dict []string) valuesFn[int64] {
	if v.lit != nil {
		return constant(strKey(dict, v.lit.S), v.lit.Null)
	}
	codes, nulls, slot := v.str.Codes(), words(v.str.Nulls()), b.intSlot()
	own := v.str.Dict()
	if len(own) == len(dict) && (len(own) == 0 || &own[0] == &dict[0]) {
		return func(sc *scratch, lo, hi int) ([]int64, uint64) {
			out := sc.ints[slot][:hi-lo]
			for j, c := range codes[lo:hi] {
				out[j] = 2*int64(c) + 1
			}
			return out, nullWord(nulls, lo)
		}
	}
	key := make([]int64, len(own))
	for c, s := range own {
		key[c] = strKey(dict, s)
	}
	return func(sc *scratch, lo, hi int) ([]int64, uint64) {
		out := sc.ints[slot][:hi-lo]
		for j, c := range codes[lo:hi] {
			out[j] = key[c]
		}
		return out, nullWord(nulls, lo)
	}
}

// --- kernels and helpers ---

// constant is a literal operand: one batch of the value, shared
// read-only by every worker.
func constant[T int64 | float64](x T, null bool) valuesFn[T] {
	var fill [batch]T
	for i := range fill {
		fill[i] = x
	}
	nw := nullIf(null)
	return func(_ *scratch, lo, hi int) ([]T, uint64) { return fill[:hi-lo], nw }
}

// anyOf sets bit j when xs[j] equals one of cands.
func anyOf[T int64 | float64](xs, cands []T) uint64 {
	var w uint64
	for _, c := range cands {
		for j, x := range xs {
			w |= b2u(x == c) << uint(j&63)
		}
	}
	return w
}

// store copies a batch into a column's vector, zeroing NULL rows as the
// builders do, and returns the batch's null word.
func store[T int64 | float64](dst, xs []T, null uint64) uint64 {
	copy(dst, xs)
	null &= mask(0, len(dst))
	for w := null; w != 0; w &= w - 1 {
		dst[bits.TrailingZeros64(w)] = 0
	}
	return null
}

// mask covers the hi-lo rows of a batch (1 to 64).
func mask(lo, hi int) uint64 { return ^uint64(0) >> uint(batch-(hi-lo)) }

func nullIf(null bool) uint64 {
	if null {
		return ^uint64(0)
	}
	return 0
}

func words(bm *columnar.Bitmap) []uint64 {
	if bm == nil {
		return nil
	}
	return bm.Words()
}

func nullWord(words []uint64, lo int) uint64 {
	if words == nil {
		return 0
	}
	return words[lo/batch]
}

func nilIfEmpty(bm *columnar.Bitmap) *columnar.Bitmap {
	if bm.Count() == 0 {
		return nil
	}
	return bm
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
