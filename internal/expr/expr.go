// Package expr implements scalar expressions and predicates evaluated
// over columnar tables — the engine's expression service and the input
// language of its predicate evaluators.
//
// Bind compiles an expression once per table into closures over the
// table's typed vectors, evaluated 64 rows (one bitmap word) at a time;
// the engine's filters, derives and computed projections run that way.
// Expr.Eval and EvalPredicate evaluate row at a time and stay as the
// reference the bound evaluator is tested against. The engine charges
// expression work to the cost model by row count, so evaluation speed
// does not affect modeled results.
package expr

import (
	"fmt"
	"strings"

	"blugpu/internal/columnar"
)

// Expr is a scalar expression over one table's row.
type Expr interface {
	// Eval computes the expression for row i of tbl.
	Eval(tbl *columnar.Table, i int) (columnar.Value, error)
	// TypeOf resolves the result type against tbl's schema.
	TypeOf(tbl *columnar.Table) (columnar.Type, error)
	// String renders SQL-ish text.
	String() string
}

// --- Column reference ---

// Col references a column by name.
type Col struct{ Name string }

// Eval implements Expr.
func (c *Col) Eval(tbl *columnar.Table, i int) (columnar.Value, error) {
	col := tbl.Column(c.Name)
	if col == nil {
		return columnar.Value{}, fmt.Errorf("expr: unknown column %q", c.Name)
	}
	return col.Value(i), nil
}

// TypeOf implements Expr.
func (c *Col) TypeOf(tbl *columnar.Table) (columnar.Type, error) {
	col := tbl.Column(c.Name)
	if col == nil {
		return 0, fmt.Errorf("expr: unknown column %q", c.Name)
	}
	return col.Type(), nil
}

func (c *Col) String() string { return c.Name }

// --- Literal ---

// Lit is a constant.
type Lit struct{ Val columnar.Value }

// Int returns an integer literal.
func Int(v int64) *Lit { return &Lit{columnar.IntValue(v)} }

// Float returns a float literal.
func Float(v float64) *Lit { return &Lit{columnar.FloatValue(v)} }

// Str returns a string literal.
func Str(v string) *Lit { return &Lit{columnar.StringValue(v)} }

// Eval implements Expr.
func (l *Lit) Eval(*columnar.Table, int) (columnar.Value, error) { return l.Val, nil }

// TypeOf implements Expr.
func (l *Lit) TypeOf(*columnar.Table) (columnar.Type, error) { return l.Val.Type, nil }

func (l *Lit) String() string {
	if l.Val.Type == columnar.String && !l.Val.Null {
		return "'" + l.Val.S + "'"
	}
	return l.Val.String()
}

// --- Arithmetic ---

// ArithOp enumerates arithmetic operators.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (op ArithOp) String() string {
	return [...]string{"+", "-", "*", "/"}[op]
}

// Arith is a binary arithmetic expression.
type Arith struct {
	Op          ArithOp
	Left, Right Expr
}

// Eval implements Expr.
func (a *Arith) Eval(tbl *columnar.Table, i int) (columnar.Value, error) {
	l, err := a.Left.Eval(tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	r, err := a.Right.Eval(tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	t, err := numericResult(l.Type, r.Type)
	if err != nil {
		return columnar.Value{}, fmt.Errorf("expr: %s: %w", a, err)
	}
	if l.Null || r.Null {
		return columnar.NullValue(t), nil
	}
	if t == columnar.Float64 {
		lf, rf := asFloat(l), asFloat(r)
		switch a.Op {
		case Add:
			return columnar.FloatValue(lf + rf), nil
		case Sub:
			return columnar.FloatValue(lf - rf), nil
		case Mul:
			return columnar.FloatValue(lf * rf), nil
		case Div:
			if rf == 0 {
				return columnar.NullValue(t), nil
			}
			return columnar.FloatValue(lf / rf), nil
		}
	}
	switch a.Op {
	case Add:
		return columnar.IntValue(l.I + r.I), nil
	case Sub:
		return columnar.IntValue(l.I - r.I), nil
	case Mul:
		return columnar.IntValue(l.I * r.I), nil
	case Div:
		if r.I == 0 {
			return columnar.NullValue(t), nil
		}
		return columnar.IntValue(l.I / r.I), nil
	}
	return columnar.Value{}, fmt.Errorf("expr: unknown arith op %d", a.Op)
}

// TypeOf implements Expr.
func (a *Arith) TypeOf(tbl *columnar.Table) (columnar.Type, error) {
	lt, err := a.Left.TypeOf(tbl)
	if err != nil {
		return 0, err
	}
	rt, err := a.Right.TypeOf(tbl)
	if err != nil {
		return 0, err
	}
	return numericResult(lt, rt)
}

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.Left, a.Op, a.Right)
}

// --- Comparison ---

// CmpOp enumerates comparison operators.
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (op CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[op]
}

// Cmp is a binary comparison; its result is a boolean encoded as an Int64
// Value (1/0) with NULL for unknown (SQL three-valued logic).
type Cmp struct {
	Op          CmpOp
	Left, Right Expr
}

// Eval implements Expr.
func (c *Cmp) Eval(tbl *columnar.Table, i int) (columnar.Value, error) {
	l, err := c.Left.Eval(tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	r, err := c.Right.Eval(tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	v, err := compare(c.Op, l, r)
	if err != nil {
		return columnar.Value{}, fmt.Errorf("expr: %s: %w", c, err)
	}
	return v, nil
}

// compare applies op to two values under three-valued logic.
func compare(op CmpOp, l, r columnar.Value) (columnar.Value, error) {
	if l.Null || r.Null {
		return columnar.NullValue(columnar.Int64), nil
	}
	l, r, err := coerce(l, r)
	if err != nil {
		return columnar.Value{}, err
	}
	cv := l.Compare(r)
	var ok bool
	switch op {
	case Eq:
		ok = cv == 0
	case Ne:
		ok = cv != 0
	case Lt:
		ok = cv < 0
	case Le:
		ok = cv <= 0
	case Gt:
		ok = cv > 0
	case Ge:
		ok = cv >= 0
	}
	return boolValue(ok), nil
}

// TypeOf implements Expr. A string compares only with a string, whatever
// the rows hold, so the error does not depend on the data.
func (c *Cmp) TypeOf(tbl *columnar.Table) (columnar.Type, error) {
	lt, err := c.Left.TypeOf(tbl)
	if err != nil {
		return 0, err
	}
	rt, err := c.Right.TypeOf(tbl)
	if err != nil {
		return 0, err
	}
	if err := checkComparable(lt, rt); err != nil {
		return 0, fmt.Errorf("expr: %s: %w", c, err)
	}
	return columnar.Int64, nil
}

// checkComparable rejects a string compared with a number, the one pair
// coerce cannot reconcile.
func checkComparable(l, r columnar.Type) error {
	if (l == columnar.String) != (r == columnar.String) {
		return fmt.Errorf("cannot compare %v with %v", l, r)
	}
	return nil
}

func (c *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.Left, c.Op, c.Right)
}

// --- Logical ---

// LogicOp enumerates logical connectives.
type LogicOp int

// Logical connectives.
const (
	And LogicOp = iota
	Or
)

func (op LogicOp) String() string { return [...]string{"AND", "OR"}[op] }

// Logic combines boolean expressions with SQL three-valued logic.
type Logic struct {
	Op          LogicOp
	Left, Right Expr
}

// Eval implements Expr.
func (lg *Logic) Eval(tbl *columnar.Table, i int) (columnar.Value, error) {
	l, err := lg.Left.Eval(tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	r, err := lg.Right.Eval(tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	lt, rt := truth(l), truth(r)
	switch lg.Op {
	case And:
		return and(lt, rt), nil
	case Or:
		switch {
		case lt == tTrue || rt == tTrue:
			return boolValue(true), nil
		case lt == tFalse && rt == tFalse:
			return boolValue(false), nil
		default:
			return columnar.NullValue(columnar.Int64), nil
		}
	}
	return columnar.Value{}, fmt.Errorf("expr: unknown logic op %d", lg.Op)
}

// and is SQL's three-valued AND.
func and(l, r tri) columnar.Value {
	switch {
	case l == tFalse || r == tFalse:
		return boolValue(false)
	case l == tTrue && r == tTrue:
		return boolValue(true)
	default:
		return columnar.NullValue(columnar.Int64)
	}
}

// TypeOf implements Expr.
func (lg *Logic) TypeOf(tbl *columnar.Table) (columnar.Type, error) {
	if _, err := lg.Left.TypeOf(tbl); err != nil {
		return 0, err
	}
	if _, err := lg.Right.TypeOf(tbl); err != nil {
		return 0, err
	}
	return columnar.Int64, nil
}

func (lg *Logic) String() string {
	return fmt.Sprintf("(%s %s %s)", lg.Left, lg.Op, lg.Right)
}

// Not negates a boolean expression (NULL stays NULL).
type Not struct{ Inner Expr }

// Eval implements Expr.
func (n *Not) Eval(tbl *columnar.Table, i int) (columnar.Value, error) {
	v, err := n.Inner.Eval(tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	switch truth(v) {
	case tTrue:
		return boolValue(false), nil
	case tFalse:
		return boolValue(true), nil
	default:
		return columnar.NullValue(columnar.Int64), nil
	}
}

// TypeOf implements Expr.
func (n *Not) TypeOf(tbl *columnar.Table) (columnar.Type, error) {
	if _, err := n.Inner.TypeOf(tbl); err != nil {
		return 0, err
	}
	return columnar.Int64, nil
}

func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.Inner) }

// --- Between, In, IsNull ---

// Between is `x BETWEEN lo AND hi` (inclusive).
type Between struct{ X, Lo, Hi Expr }

// Eval implements Expr: x >= lo AND x <= hi, without building the nodes.
func (b *Between) Eval(tbl *columnar.Table, i int) (columnar.Value, error) {
	x, err := b.X.Eval(tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	lo, err := b.Lo.Eval(tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	hi, err := b.Hi.Eval(tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	ge, err := compare(Ge, x, lo)
	if err != nil {
		return columnar.Value{}, fmt.Errorf("expr: %s: %w", b, err)
	}
	le, err := compare(Le, x, hi)
	if err != nil {
		return columnar.Value{}, fmt.Errorf("expr: %s: %w", b, err)
	}
	return and(truth(ge), truth(le)), nil
}

// TypeOf implements Expr; x must compare with both bounds.
func (b *Between) TypeOf(tbl *columnar.Table) (columnar.Type, error) {
	var ts [3]columnar.Type
	for i, e := range [3]Expr{b.X, b.Lo, b.Hi} {
		t, err := e.TypeOf(tbl)
		if err != nil {
			return 0, err
		}
		ts[i] = t
	}
	for _, bound := range ts[1:] {
		if err := checkComparable(ts[0], bound); err != nil {
			return 0, fmt.Errorf("expr: %s: %w", b, err)
		}
	}
	return columnar.Int64, nil
}

func (b *Between) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", b.X, b.Lo, b.Hi)
}

// In is `x IN (v1, v2, ...)` over literal values.
type In struct {
	X    Expr
	Vals []columnar.Value
}

// Eval implements Expr.
func (in *In) Eval(tbl *columnar.Table, i int) (columnar.Value, error) {
	v, err := in.X.Eval(tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	if v.Null {
		return columnar.NullValue(columnar.Int64), nil
	}
	for _, c := range in.Vals {
		cv, vv, err := coerce(c, v)
		if err != nil {
			continue
		}
		if vv.Equal(cv) {
			return boolValue(true), nil
		}
	}
	return boolValue(false), nil
}

// TypeOf implements Expr.
func (in *In) TypeOf(tbl *columnar.Table) (columnar.Type, error) {
	if _, err := in.X.TypeOf(tbl); err != nil {
		return 0, err
	}
	return columnar.Int64, nil
}

func (in *In) String() string {
	parts := make([]string, len(in.Vals))
	for i, v := range in.Vals {
		if v.Type == columnar.String {
			parts[i] = "'" + v.S + "'"
		} else {
			parts[i] = v.String()
		}
	}
	return fmt.Sprintf("(%s IN (%s))", in.X, strings.Join(parts, ", "))
}

// IsNull is `x IS [NOT] NULL`.
type IsNull struct {
	X      Expr
	Negate bool
}

// Eval implements Expr.
func (n *IsNull) Eval(tbl *columnar.Table, i int) (columnar.Value, error) {
	v, err := n.X.Eval(tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	return boolValue(v.Null != n.Negate), nil
}

// TypeOf implements Expr.
func (n *IsNull) TypeOf(tbl *columnar.Table) (columnar.Type, error) {
	if _, err := n.X.TypeOf(tbl); err != nil {
		return 0, err
	}
	return columnar.Int64, nil
}

func (n *IsNull) String() string {
	if n.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", n.X)
	}
	return fmt.Sprintf("(%s IS NULL)", n.X)
}

// --- helpers ---

type tri int

const (
	tFalse tri = iota
	tTrue
	tNull
)

func truth(v columnar.Value) tri {
	if v.Null {
		return tNull
	}
	switch v.Type {
	case columnar.Int64:
		if v.I != 0 {
			return tTrue
		}
	case columnar.Float64:
		if v.F != 0 {
			return tTrue
		}
	}
	return tFalse
}

func boolValue(b bool) columnar.Value {
	if b {
		return columnar.IntValue(1)
	}
	return columnar.IntValue(0)
}

func asFloat(v columnar.Value) float64 {
	if v.Type == columnar.Float64 {
		return v.F
	}
	return float64(v.I)
}

func numericResult(l, r columnar.Type) (columnar.Type, error) {
	if l == columnar.String || r == columnar.String {
		return 0, fmt.Errorf("arithmetic on string operand")
	}
	if l == columnar.Float64 || r == columnar.Float64 {
		return columnar.Float64, nil
	}
	return columnar.Int64, nil
}

// coerce makes two values comparable, widening int to float when mixed.
func coerce(l, r columnar.Value) (columnar.Value, columnar.Value, error) {
	if l.Type == r.Type {
		return l, r, nil
	}
	if l.Type == columnar.String || r.Type == columnar.String {
		return l, r, fmt.Errorf("cannot compare %v with %v", l.Type, r.Type)
	}
	return columnar.FloatValue(asFloat(l)), columnar.FloatValue(asFloat(r)), nil
}

// EvalPredicate evaluates pred for every row of tbl and returns the
// selection bitmap (rows where the predicate is TRUE; FALSE and NULL are
// excluded, per SQL WHERE semantics). It is the sequential reference for
// EvalPredicateDegree.
func EvalPredicate(tbl *columnar.Table, pred Expr) (*columnar.Bitmap, error) {
	if _, err := pred.TypeOf(tbl); err != nil {
		return nil, err
	}
	bm := columnar.NewBitmap(tbl.Rows())
	for i := 0; i < tbl.Rows(); i++ {
		v, err := pred.Eval(tbl, i)
		if err != nil {
			return nil, err
		}
		if truth(v) == tTrue {
			bm.Set(i)
		}
	}
	return bm, nil
}

// predicateGrain is the minimum rows per worker for bound evaluation.
// A bound predicate costs a few ns per row, so a worker is worth its
// goroutine handoff only over several thousand rows.
const predicateGrain = 8192

// EvalPredicateDegree is the parallel predicate scan: pred is bound to
// tbl once, then disjoint 64-aligned row ranges are evaluated by the
// worker pool, each worker setting only its own words of the bitmap. The
// result is identical to EvalPredicate at any degree.
func EvalPredicateDegree(tbl *columnar.Table, pred Expr, degree int) (*columnar.Bitmap, error) {
	b, err := Bind(tbl, pred)
	if err != nil {
		return nil, err
	}
	return b.Select(degree), nil
}

// Columns returns the distinct column names e references, in first-
// reference order. Planners use it to compute the exact column set an
// expression needs (late materialization).
func Columns(e Expr) []string {
	var out []string
	seen := make(map[string]bool)
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *Col:
			if !seen[x.Name] {
				seen[x.Name] = true
				out = append(out, x.Name)
			}
		case *Arith:
			walk(x.Left)
			walk(x.Right)
		case *Cmp:
			walk(x.Left)
			walk(x.Right)
		case *Logic:
			walk(x.Left)
			walk(x.Right)
		case *Not:
			walk(x.Inner)
		case *Between:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		case *In:
			walk(x.X)
		case *IsNull:
			walk(x.X)
		}
	}
	walk(e)
	return out
}
