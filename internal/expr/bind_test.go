package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"blugpu/internal/columnar"
)

// bindTable builds a table with every column shape the bound evaluator
// reads: int, float and string columns with and without nulls, string
// columns with different dictionaries, with and without "" next to
// their NULLs, and small value domains so comparisons hit equality, NaN,
// ±0 and the empty string.
func bindTable(rows int, seed int64) *columnar.Table {
	r := rand.New(rand.NewSource(seed))
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 0.5, 1, -1.5, 2, 3, math.Inf(1)}
	i := columnar.NewInt64Builder("i")
	in := columnar.NewInt64Builder("in")
	f := columnar.NewFloat64Builder("f")
	fn := columnar.NewFloat64Builder("fn")
	s := columnar.NewStringBuilder("s")
	sn := columnar.NewStringBuilder("sn")
	s2 := columnar.NewStringBuilder("s2")
	// s3 has NULLs but no "" in its dictionary, which only a column made
	// from codes can have (StringBuilder files a NULL under "").
	s3, s3Nulls := make([]int32, rows), columnar.NewBitmap(rows)
	for k := 0; k < rows; k++ {
		if r.Intn(3) == 0 {
			s3Nulls.Set(k)
		} else {
			s3[k] = int32(r.Intn(2))
		}
		i.Append(int64(r.Intn(7) - 3))
		if r.Intn(4) == 0 {
			in.AppendNull()
		} else {
			in.Append(int64(r.Intn(7) - 3))
		}
		f.Append(floats[r.Intn(len(floats))])
		if r.Intn(4) == 0 {
			fn.AppendNull()
		} else {
			fn.Append(floats[r.Intn(len(floats))])
		}
		s.Append([]string{"", "a", "b", "bb", "c"}[r.Intn(5)])
		if r.Intn(4) == 0 {
			sn.AppendNull()
		} else {
			sn.Append([]string{"", "a", "c", "z"}[r.Intn(4)])
		}
		if r.Intn(8) == 0 {
			s2.AppendNull()
		} else {
			s2.Append([]string{"b", "ba", "d"}[r.Intn(3)])
		}
	}
	return columnar.MustNewTable("b", i.Build(), in.Build(), f.Build(), fn.Build(), s.Build(), sn.Build(), s2.Build(),
		columnar.NewStringColumn("s3", []string{"b", "d"}, s3, s3Nulls))
}

// bindLits are literals covering NaN, ±0, mixed int/float, NULL of each
// type, and strings in and out of bindTable's dictionaries.
var bindLits = []*Lit{
	Int(0), Int(2), Int(-3), Float(math.NaN()), Float(math.Copysign(0, -1)), Float(1.5), Float(2),
	Str("b"), Str("ba"), Str(""), Str("zz"), Str("0"),
	{columnar.NullValue(columnar.Int64)}, {columnar.NullValue(columnar.Float64)}, {columnar.NullValue(columnar.String)},
}

// bindLeaves are the operands the differential tests combine: every
// column of bindTable and every literal of bindLits.
var bindLeaves = func() []Expr {
	out := []Expr{&Col{"i"}, &Col{"in"}, &Col{"f"}, &Col{"fn"}, &Col{"s"}, &Col{"sn"}, &Col{"s2"}, &Col{"s3"}}
	for _, l := range bindLits {
		out = append(out, l)
	}
	return out
}()

// bindCases lists expressions covering every node kind and operator.
func bindCases() []Expr {
	var out []Expr
	numeric := []Expr{&Col{"i"}, &Col{"in"}, &Col{"f"}, &Col{"fn"}, Int(0), Int(2), Float(math.NaN()),
		Float(math.Copysign(0, -1)), Float(1.5), &Lit{columnar.NullValue(columnar.Float64)}}
	strs := []Expr{&Col{"s"}, &Col{"sn"}, &Col{"s2"}, &Col{"s3"}, Str("b"), Str("ba"), Str(""), Str("zz"), Str("0"),
		&Lit{columnar.NullValue(columnar.String)}}
	for op := Eq; op <= Ge; op++ {
		for _, l := range numeric {
			for _, r := range numeric {
				out = append(out, &Cmp{Op: op, Left: l, Right: r})
			}
		}
		for _, l := range strs {
			for _, r := range strs {
				out = append(out, &Cmp{Op: op, Left: l, Right: r})
			}
		}
		// String against number: a type error on every table.
		out = append(out, &Cmp{Op: op, Left: &Col{"s"}, Right: Int(1)}, &Cmp{Op: op, Left: Float(1), Right: &Col{"sn"}})
	}
	for op := Add; op <= Div; op++ {
		for _, l := range numeric[:5] {
			for _, r := range numeric {
				a := &Arith{Op: op, Left: l, Right: r}
				out = append(out, a, &Cmp{Op: Gt, Left: a, Right: Int(0)})
			}
		}
		out = append(out, &Arith{Op: op, Left: &Col{"s"}, Right: Int(1)})
	}
	gt := &Cmp{Op: Gt, Left: &Col{"in"}, Right: Int(0)}
	lt := &Cmp{Op: Lt, Left: &Col{"fn"}, Right: Float(1)}
	for _, op := range []LogicOp{And, Or} {
		for _, l := range []Expr{gt, lt, &Col{"f"}, &Col{"sn"}, Int(1), Int(0), &Lit{columnar.NullValue(columnar.Int64)}} {
			out = append(out, &Logic{Op: op, Left: l, Right: gt}, &Logic{Op: op, Left: lt, Right: l})
		}
	}
	for _, x := range bindLeaves {
		out = append(out, x, &Not{x}, &IsNull{X: x}, &IsNull{X: x, Negate: true})
	}
	out = append(out,
		&Not{gt}, &IsNull{X: gt}, &IsNull{X: &Arith{Op: Div, Left: Int(1), Right: &Col{"i"}}},
		&Arith{Op: Add, Left: gt, Right: Int(1)}, &Cmp{Op: Eq, Left: lt, Right: Int(1)},
		&Between{X: &Col{"i"}, Lo: Int(-1), Hi: Int(2)},
		&Between{X: &Col{"in"}, Lo: Float(-0.5), Hi: Int(2)},
		&Between{X: &Col{"fn"}, Lo: Int(0), Hi: Float(math.NaN())},
		&Between{X: &Col{"f"}, Lo: &Col{"i"}, Hi: &Col{"in"}},
		&Between{X: &Col{"s"}, Lo: Str("a"), Hi: Str("bc")},
		&Between{X: &Col{"sn"}, Lo: &Col{"s2"}, Hi: Str("zz")},
		&Between{X: &Col{"s"}, Lo: Int(0), Hi: Str("b")},
		&In{X: &Col{"i"}, Vals: []columnar.Value{columnar.StringValue("x"), columnar.IntValue(2), columnar.FloatValue(-1)}},
		&In{X: &Col{"in"}, Vals: []columnar.Value{columnar.NullValue(columnar.Float64), columnar.NullValue(columnar.Int64)}},
		&In{X: &Col{"f"}, Vals: []columnar.Value{columnar.IntValue(0), columnar.FloatValue(math.NaN()), columnar.IntValue(2)}},
		&In{X: &Col{"fn"}, Vals: []columnar.Value{columnar.NullValue(columnar.Int64), columnar.NullValue(columnar.Float64)}},
		&In{X: &Col{"s"}, Vals: []columnar.Value{columnar.StringValue("b"), columnar.StringValue("zz"), columnar.IntValue(1), columnar.StringValue("")}},
		&In{X: &Col{"sn"}, Vals: []columnar.Value{columnar.StringValue("z"), columnar.NullValue(columnar.String)}},
		&In{X: Str("b"), Vals: []columnar.Value{columnar.StringValue("b")}},
		&In{X: &Lit{columnar.NullValue(columnar.String)}, Vals: []columnar.Value{columnar.StringValue("b")}},
		&In{X: gt, Vals: []columnar.Value{columnar.IntValue(1), columnar.FloatValue(0)}},
		&In{X: &Col{"i"}},
		&Logic{Op: And, Left: &IsNull{X: &Col{"in"}, Negate: true}, Right: &Between{X: &Col{"fn"}, Lo: Int(0), Hi: Int(2)}},
		&Col{"missing"},
		&Cmp{Op: CmpOp(9), Left: &Col{"i"}, Right: Int(0)},
	)
	return out
}

// referenceColumn is the row-at-a-time derive: Eval every row, then build
// the column through the columnar builders.
func referenceColumn(t *testing.T, tbl *columnar.Table, name string, e Expr) columnar.Column {
	t.Helper()
	typ, err := e.TypeOf(tbl)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]columnar.Value, tbl.Rows())
	for i := range vals {
		if vals[i], err = e.Eval(tbl, i); err != nil {
			t.Fatalf("%s row %d: %v", e, i, err)
		}
	}
	col, err := columnar.ColumnFromValues(name, typ, vals)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// sameColumn reports how got differs from want, down to the null bitmap,
// the payload under NULL rows, float bits and the string dictionary.
func sameColumn(got, want columnar.Column) error {
	if got.Name() != want.Name() || got.Type() != want.Type() || got.Len() != want.Len() {
		return fmt.Errorf("got %s %v len %d, want %s %v len %d",
			got.Name(), got.Type(), got.Len(), want.Name(), want.Type(), want.Len())
	}
	var gn, wn *columnar.Bitmap
	switch w := want.(type) {
	case *columnar.Int64Column:
		g := got.(*columnar.Int64Column)
		gn, wn = g.Nulls(), w.Nulls()
		for i, v := range w.Data() {
			if g.Data()[i] != v {
				return fmt.Errorf("row %d: got %d, want %d", i, g.Data()[i], v)
			}
		}
	case *columnar.Float64Column:
		g := got.(*columnar.Float64Column)
		gn, wn = g.Nulls(), w.Nulls()
		for i, v := range w.Data() {
			if math.Float64bits(g.Data()[i]) != math.Float64bits(v) {
				return fmt.Errorf("row %d: got %v, want %v", i, g.Data()[i], v)
			}
		}
	case *columnar.StringColumn:
		g := got.(*columnar.StringColumn)
		gn, wn = g.Nulls(), w.Nulls()
		if fmt.Sprint(g.Dict()) != fmt.Sprint(w.Dict()) || g.DictSize() != w.DictSize() {
			return fmt.Errorf("dictionary %q, want %q", g.Dict(), w.Dict())
		}
		for i, c := range w.Codes() {
			if g.Codes()[i] != c {
				return fmt.Errorf("row %d: code %d, want %d", i, g.Codes()[i], c)
			}
		}
	}
	if (gn == nil) != (wn == nil) {
		return fmt.Errorf("null bitmap present %v, want %v", gn != nil, wn != nil)
	}
	if gn != nil && fmt.Sprint(gn.Words()) != fmt.Sprint(wn.Words()) {
		return fmt.Errorf("null bitmap %x, want %x", gn.Words(), wn.Words())
	}
	return nil
}

// checkBind compares the bound evaluator with the reference on one table:
// the same type errors, the same selection as EvalPredicate, and the same
// column as the row-at-a-time derive, at degrees 1, 2 and 8.
func checkBind(t *testing.T, tbl *columnar.Table, e Expr) {
	t.Helper()
	_, typeErr := e.TypeOf(tbl)
	b, err := Bind(tbl, e)
	if typeErr != nil {
		if err == nil {
			t.Fatalf("%s: TypeOf fails (%v) but Bind succeeds", e, typeErr)
		}
		if _, err := EvalPredicateDegree(tbl, e, 2); err == nil {
			t.Fatalf("%s: EvalPredicateDegree accepts a mistyped predicate", e)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: Bind: %v", e, err)
	}
	want, err := EvalPredicate(tbl, e)
	if err != nil {
		t.Fatalf("%s: EvalPredicate errors after TypeOf passed: %v", e, err)
	}
	wantCol := referenceColumn(t, tbl, "c", e)
	for _, degree := range []int{1, 2, 8} {
		got := b.Select(degree)
		if got.Len() != want.Len() || fmt.Sprint(got.Words()) != fmt.Sprint(want.Words()) {
			t.Fatalf("%s degree %d rows %d: selection %v, want %v", e, degree, tbl.Rows(), got.Indices(), want.Indices())
		}
		if err := sameColumn(b.Column("c", degree), wantCol); err != nil {
			t.Fatalf("%s degree %d rows %d: column: %v", e, degree, tbl.Rows(), err)
		}
	}
}

func TestBindMatchesEval(t *testing.T) {
	cases := bindCases()
	// Row counts around the bitmap-word (64) and worker-grain edges.
	for _, rows := range []int{0, 1, 63, 64, 65, 4097, predicateGrain + 1} {
		tbl := bindTable(rows, int64(rows))
		t.Run(fmt.Sprint(rows), func(t *testing.T) {
			t.Parallel()
			for _, e := range cases {
				checkBind(t, tbl, e)
			}
		})
	}
}

// genExpr decodes an expression from fuzz bytes, bottoming out in
// bindLeaves once the bytes run out or depth reaches zero.
func genExpr(p *[]byte, depth int) Expr {
	next := func() int {
		if len(*p) == 0 {
			return 0
		}
		b := (*p)[0]
		*p = (*p)[1:]
		return int(b)
	}
	k := next()
	if depth == 0 || len(*p) == 0 || k%10 == 0 {
		return bindLeaves[next()%len(bindLeaves)]
	}
	switch k % 10 {
	case 1:
		return &Arith{Op: ArithOp(next() % 4), Left: genExpr(p, depth-1), Right: genExpr(p, depth-1)}
	case 2, 3:
		return &Cmp{Op: CmpOp(next() % 6), Left: genExpr(p, depth-1), Right: genExpr(p, depth-1)}
	case 4:
		return &Logic{Op: LogicOp(next() % 2), Left: genExpr(p, depth-1), Right: genExpr(p, depth-1)}
	case 5:
		return &Not{genExpr(p, depth-1)}
	case 6:
		return &Between{X: genExpr(p, depth-1), Lo: genExpr(p, depth-1), Hi: genExpr(p, depth-1)}
	case 7:
		x := genExpr(p, depth-1)
		vals := make([]columnar.Value, next()%4)
		for i := range vals {
			vals[i] = bindLits[next()%len(bindLits)].Val
		}
		return &In{X: x, Vals: vals}
	case 8:
		return &IsNull{X: genExpr(p, depth-1), Negate: next()%2 == 1}
	}
	return bindLeaves[next()%len(bindLeaves)]
}

func FuzzBindMatchesEval(f *testing.F) {
	for _, rows := range []uint16{0, 1, 63, 64, 65, 4097} {
		f.Add(rows, int64(rows), []byte{2, 0, 0, 1, 11})
		f.Add(rows, int64(7), []byte{4, 1, 2, 5, 0, 2, 3, 4, 0, 0, 3, 6, 13, 7, 2, 5, 3, 8})
		f.Add(rows, int64(3), []byte{6, 10, 3, 10, 9, 10, 10})
		f.Add(rows, int64(5), []byte{7, 10, 4, 3, 0, 4, 9})
		f.Add(rows, int64(9), []byte{1, 3, 10, 2, 10, 0, 8, 1})
		f.Add(rows, int64(11), []byte{2, 4, 10, 5, 10, 17})
	}
	f.Fuzz(func(t *testing.T, rows uint16, seed int64, prog []byte) {
		e := genExpr(&prog, 4)
		checkBind(t, bindTable(int(rows)%4200, seed), e)
	})
}

// TestCmpTypeErrorIndependentOfData: a string compared with a number is
// rejected on an empty table, an all-NULL table and a table with a value
// alike, by TypeOf, the reference scan and the bound scan.
func TestCmpTypeErrorIndependentOfData(t *testing.T) {
	empty := columnar.MustNewTable("e", columnar.NewStringBuilder("s").Build())
	nb := columnar.NewStringBuilder("s")
	nb.AppendNull()
	nb.AppendNull()
	allNull := columnar.MustNewTable("n", nb.Build())
	vb := columnar.NewStringBuilder("s")
	vb.Append("NY")
	oneRow := columnar.MustNewTable("v", vb.Build())
	preds := []Expr{
		&Cmp{Op: Eq, Left: &Col{"s"}, Right: Int(5)},
		&Cmp{Op: Lt, Left: Float(1), Right: &Col{"s"}},
		&Between{X: &Col{"s"}, Lo: Int(1), Hi: Int(2)},
		&Between{X: Int(3), Lo: &Col{"s"}, Hi: Int(4)},
	}
	for _, tbl := range []*columnar.Table{empty, allNull, oneRow} {
		for _, p := range preds {
			if _, err := p.TypeOf(tbl); err == nil {
				t.Errorf("%s on %s: TypeOf accepts string vs number", p, tbl.Name())
			}
			if _, err := EvalPredicate(tbl, p); err == nil {
				t.Errorf("%s on %s: EvalPredicate accepts string vs number", p, tbl.Name())
			}
			if _, err := EvalPredicateDegree(tbl, p, 2); err == nil {
				t.Errorf("%s on %s: EvalPredicateDegree accepts string vs number", p, tbl.Name())
			}
		}
	}
}

// TestEvalPredicateAllocsFlat: the reference scan allocates per scan, not
// per row — Between evaluates its two comparisons inline.
func TestEvalPredicateAllocsFlat(t *testing.T) {
	pred := &Between{X: &Col{"x"}, Lo: Int(10), Hi: Int(20)}
	allocs := func(rows int) float64 {
		b := columnar.NewInt64Builder("x")
		for i := 0; i < rows; i++ {
			b.Append(int64(i % 32))
		}
		tbl := columnar.MustNewTable("a", b.Build())
		return testing.AllocsPerRun(5, func() {
			if _, err := EvalPredicate(tbl, pred); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(4096), allocs(8192); a != b {
		t.Errorf("EvalPredicate allocations grow with rows: %v at 4096, %v at 8192", a, b)
	}
}
