package engine

import (
	"fmt"
	"time"

	"blugpu/internal/columnar"
	"blugpu/internal/expr"
	"blugpu/internal/plan"
	"blugpu/internal/trace"
)

// exprGrain is the minimum rows per worker for the engine's per-row
// loops (sort-key encoding, group-key decoding); each row's work is heavy
// enough for small chunks.
const exprGrain = 512

// exec dispatches one plan node. The query context q rides along so every
// operator can hang its span off the query root.
func (e *Engine) exec(n plan.Node, q qctx) (*frame, error) {
	if err := q.err(); err != nil {
		return nil, fmt.Errorf("engine: query canceled: %w", err)
	}
	switch node := n.(type) {
	case *plan.Scan:
		return e.execScan(node, q)
	case *plan.Join:
		return e.execJoin(node, q)
	case *plan.Filter:
		return e.execFilter(node, q)
	case *plan.Derive:
		return e.execDerive(node, q)
	case *plan.Aggregate:
		return e.execAggregate(node, q)
	case *plan.Window:
		return e.execWindow(node, q)
	case *plan.Project:
		return e.execProject(node, q)
	case *plan.Sort:
		return e.execSort(node, q)
	case *plan.Limit:
		return e.execLimit(node, q)
	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", n)
	}
}

// execInput runs an operator's input subtree, then re-checks the query's
// context so cancellation is honored between operators: a query canceled
// while its input ran stops before this operator starts its own work,
// with every reservation the input held already released on its unwind.
func (e *Engine) execInput(n plan.Node, q qctx) (*frame, error) {
	f, err := e.exec(n, q)
	if err != nil {
		return nil, err
	}
	if cerr := q.err(); cerr != nil {
		return nil, fmt.Errorf("engine: query canceled: %w", cerr)
	}
	return f, nil
}

func (e *Engine) execScan(n *plan.Scan, q qctx) (*frame, error) {
	tbl := e.tables[n.Table]
	if tbl == nil {
		return nil, fmt.Errorf("engine: unknown table %q", n.Table)
	}
	// Late materialization: narrow to the referenced columns up front
	// (no copy — the narrowed table shares the column vectors).
	if n.Needed != nil {
		var cols []columnar.Column
		for _, name := range n.Needed {
			if c := tbl.Column(name); c != nil {
				cols = append(cols, c)
			}
		}
		if len(cols) > 0 && len(cols) < tbl.NumColumns() {
			narrowed, err := columnar.NewTable(tbl.Name(), cols...)
			if err == nil {
				tbl = narrowed
			}
		}
	}
	f := &frame{q: q, tbl: tbl}
	start := f.at()
	sp := f.begin("op", "scan")
	t := e.model.CPUTime(float64(tbl.Rows()), e.model.CPUScanRate, e.cfg.Degree)
	e.addCPU(f, t)
	sp.End(f.at(), trace.Str("table", n.Table), trace.Int("rows", int64(tbl.Rows())))
	st := OpStat{Op: "scan", Detail: n.Table, Rows: tbl.Rows(), Modeled: t}
	f.ops = append(f.ops, st)
	q.record(st, sp.ID(), start, f.at(), nil, nil)
	return f, nil
}

func (e *Engine) execFilter(n *plan.Filter, q qctx) (*frame, error) {
	f, err := e.execInput(n.Input, q.deeper())
	if err != nil {
		return nil, err
	}
	start := f.at()
	sp := f.begin("op", "filter")
	hostStart := time.Now()
	sel, err := expr.EvalPredicateDegree(f.tbl, n.Pred, e.cfg.Degree)
	if err != nil {
		return nil, err
	}
	q.wallHost(hostStart)
	gatherStart := time.Now()
	rows := sel.IndicesDegree(e.cfg.Degree)
	out := columnar.GatherTableDegree(f.tbl.Name()+"_f", f.tbl, rows, e.cfg.Degree)
	q.wallGather(gatherStart)
	if cr := q.chain; cr.member(n) {
		// Fusion chain bookkeeping: f.tbl is still this filter's input
		// here, so the deepest member captures the chain's entry table.
		cr.noteEntry(f.tbl)
		cr.stages = append(cr.stages, chainStage{op: "filter", inRows: f.tbl.Rows(), outRows: out.Rows()})
	}
	t := e.model.CPUTime(float64(f.tbl.Rows()), e.model.CPUExprRate, e.cfg.Degree) +
		e.model.CPUTime(float64(len(rows)*out.NumColumns()), e.model.CPUScanRate, e.cfg.Degree)
	e.addCPU(f, t)
	sp.End(f.at(), trace.Int("rows", int64(out.Rows())))
	f.tbl = out
	st := OpStat{Op: "filter", Detail: n.Pred.String(), Rows: out.Rows(), Modeled: t}
	f.ops = append(f.ops, st)
	q.record(st, sp.ID(), start, f.at(), nil, nil)
	return f, nil
}

func (e *Engine) execJoin(n *plan.Join, q qctx) (*frame, error) {
	left, err := e.execInput(n.Left, q.deeper())
	if err != nil {
		return nil, err
	}
	start := left.at()
	sp := left.begin("op", "join")
	right := e.tables[n.Table]
	if right == nil {
		return nil, fmt.Errorf("engine: unknown join table %q", n.Table)
	}

	// Resolve which condition column belongs to which side.
	lcol, rcol := n.LeftCol, n.RightCol
	if !left.tbl.HasColumn(lcol) && left.tbl.HasColumn(rcol) {
		lcol, rcol = rcol, lcol
	}
	lk, ok := left.tbl.Column(lcol).(*columnar.Int64Column)
	if left.tbl.Column(lcol) == nil || right.Column(rcol) == nil {
		return nil, fmt.Errorf("engine: join condition %s=%s references unknown columns", n.LeftCol, n.RightCol)
	}
	if !ok {
		return nil, fmt.Errorf("engine: join column %q must be an integer key", lcol)
	}
	rk, ok := right.Column(rcol).(*columnar.Int64Column)
	if !ok {
		return nil, fmt.Errorf("engine: join column %q must be an integer key", rcol)
	}

	// Hash join: build on the smaller input, probe the larger in
	// parallel.
	hostStart := time.Now()
	buildRight := right.Rows() <= left.tbl.Rows()
	var buildKeys, probeKeys *columnar.Int64Column
	if buildRight {
		buildKeys, probeKeys = rk, lk
	} else {
		buildKeys, probeKeys = lk, rk
	}
	leftRows, rightRows := hashJoin(buildKeys, probeKeys, buildRight, e.cfg.Degree)
	q.wallHost(hostStart)

	// Materialize both sides, restricted to the referenced columns
	// (late materialization); column names must stay unique.
	gatherStart := time.Now()
	wanted := func(name string) bool {
		if n.Needed == nil {
			return true
		}
		for _, w := range n.Needed {
			if w == name {
				return true
			}
		}
		return false
	}
	cols := make([]columnar.Column, 0, left.tbl.NumColumns()+right.NumColumns())
	for _, c := range left.tbl.Columns() {
		if !wanted(c.Name()) {
			continue
		}
		cols = append(cols, columnar.GatherColumnDegree(c, c.Name(), leftRows, e.cfg.Degree))
	}
	for _, c := range right.Columns() {
		if left.tbl.HasColumn(c.Name()) {
			if c.Name() == rcol || c.Name() == lcol {
				continue // drop the duplicate join key
			}
			return nil, fmt.Errorf("engine: duplicate column %q across join of %s", c.Name(), n.Table)
		}
		if !wanted(c.Name()) {
			continue
		}
		cols = append(cols, columnar.GatherColumnDegree(c, c.Name(), rightRows, e.cfg.Degree))
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("engine: join of %s would produce no columns", n.Table)
	}
	out, err := columnar.NewTable(left.tbl.Name()+"_j", cols...)
	if err != nil {
		return nil, err
	}
	q.wallGather(gatherStart)

	t := e.model.CPUTime(float64(buildKeys.Len()), e.model.CPUHashBuildRate, e.cfg.Degree) +
		e.model.CPUTime(float64(probeKeys.Len()), e.model.CPUHashProbeRate, e.cfg.Degree) +
		e.model.CPUTime(float64(out.Rows()*out.NumColumns()), e.model.CPUScanRate, e.cfg.Degree)
	e.addCPU(left, t)
	sp.End(left.at(), trace.Str("table", n.Table), trace.Int("rows", int64(out.Rows())))
	left.tbl = out
	st := OpStat{
		Op: "join", Detail: fmt.Sprintf("%s on %s=%s", n.Table, lcol, rcol),
		Rows: out.Rows(), Modeled: t,
	}
	left.ops = append(left.ops, st)
	q.record(st, sp.ID(), start, left.at(), nil, nil)
	return left, nil
}

func (e *Engine) execDerive(n *plan.Derive, q qctx) (*frame, error) {
	f, err := e.execInput(n.Input, q.deeper())
	if err != nil {
		return nil, err
	}
	start := f.at()
	sp := f.begin("op", "derive")
	hostStart := time.Now()
	cols := append([]columnar.Column{}, f.tbl.Columns()...)
	for _, dc := range n.Cols {
		b, err := expr.Bind(f.tbl, dc.Expr)
		if err != nil {
			return nil, err
		}
		cols = append(cols, b.Column(dc.Name, e.cfg.Degree))
	}
	q.wallHost(hostStart)
	out, err := columnar.NewTable(f.tbl.Name()+"_d", cols...)
	if err != nil {
		return nil, err
	}
	if cr := q.chain; cr.member(n) {
		cr.noteEntry(f.tbl)
		cr.stages = append(cr.stages, chainStage{op: "derive", inRows: f.tbl.Rows(), outRows: out.Rows(), cols: len(n.Cols)})
	}
	t := e.model.CPUTime(float64(f.tbl.Rows()*len(n.Cols)), e.model.CPUExprRate, e.cfg.Degree)
	e.addCPU(f, t)
	sp.End(f.at(), trace.Int("rows", int64(out.Rows())))
	f.tbl = out
	st := OpStat{Op: "derive", Rows: out.Rows(), Modeled: t}
	f.ops = append(f.ops, st)
	q.record(st, sp.ID(), start, f.at(), nil, nil)
	return f, nil
}

func (e *Engine) execProject(n *plan.Project, q qctx) (*frame, error) {
	f, err := e.execInput(n.Input, q.deeper())
	if err != nil {
		return nil, err
	}
	start := f.at()
	sp := f.begin("op", "project")
	hostStart := time.Now()
	cols := make([]columnar.Column, len(n.Cols))
	exprWork := 0
	for i, dc := range n.Cols {
		// Fast path: bare column reference just gets renamed/gathered.
		if ref, ok := dc.Expr.(*expr.Col); ok {
			src := f.tbl.Column(ref.Name)
			if src == nil {
				return nil, fmt.Errorf("engine: unknown column %q", ref.Name)
			}
			cols[i] = renameColumn(src, dc.Name, e.cfg.Degree)
			continue
		}
		b, err := expr.Bind(f.tbl, dc.Expr)
		if err != nil {
			return nil, err
		}
		cols[i] = b.Column(dc.Name, e.cfg.Degree)
		exprWork += f.tbl.Rows()
	}
	out, err := columnar.NewTable(f.tbl.Name()+"_p", cols...)
	if err != nil {
		return nil, err
	}
	q.wallHost(hostStart)
	t := e.model.CPUTime(float64(exprWork), e.model.CPUExprRate, e.cfg.Degree)
	e.addCPU(f, t)
	sp.End(f.at(), trace.Int("rows", int64(out.Rows())))
	f.tbl = out
	st := OpStat{Op: "project", Rows: out.Rows(), Modeled: t}
	f.ops = append(f.ops, st)
	q.record(st, sp.ID(), start, f.at(), nil, nil)
	return f, nil
}

func (e *Engine) execLimit(n *plan.Limit, q qctx) (*frame, error) {
	f, err := e.execInput(n.Input, q.deeper())
	if err != nil {
		return nil, err
	}
	limit := n.N
	if limit > f.tbl.Rows() {
		limit = f.tbl.Rows()
	}
	rows := columnar.IotaRows(limit, e.cfg.Degree)
	f.tbl = columnar.GatherTableDegree(f.tbl.Name()+"_l", f.tbl, rows, e.cfg.Degree)
	st := OpStat{Op: "limit", Rows: f.tbl.Rows()}
	f.ops = append(f.ops, st)
	// Limit charges no modeled time and emits no span; the zero-width
	// record keeps the audit's operator list 1:1 with Result.Ops.
	q.record(st, 0, f.at(), f.at(), nil, nil)
	return f, nil
}

// renameColumn returns src under a new name without copying the values.
func renameColumn(src columnar.Column, name string, degree int) columnar.Column {
	if src.Name() == name {
		return src
	}
	all := columnar.IotaRows(src.Len(), degree)
	return columnar.GatherColumnDegree(src, name, all, degree)
}
