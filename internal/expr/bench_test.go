package expr

import (
	"fmt"
	"math/rand"
	"testing"

	"blugpu/internal/columnar"
)

// benchRows is the size of the per-layer benchmark table: 64k rows, 16
// predicate grains, in the shape of the BD Insights store_sales fact.
const benchRows = 1 << 16

func benchTable() *columnar.Table {
	r := rand.New(rand.NewSource(1))
	date := columnar.NewInt64Builder("ss_sold_date_sk")
	qty := columnar.NewInt64Builder("ss_quantity")
	cust := columnar.NewInt64Builder("ss_customer_sk")
	price := columnar.NewFloat64Builder("ss_sales_price")
	state := columnar.NewStringBuilder("s_state")
	states := []string{"AL", "CA", "GA", "IL", "MI", "NY", "OH", "TN", "TX", "WA"}
	for i := 0; i < benchRows; i++ {
		date.Append(int64(2450000 + r.Intn(1800)))
		qty.Append(int64(1 + r.Intn(100)))
		if r.Intn(50) == 0 {
			cust.AppendNull()
		} else {
			cust.Append(int64(r.Intn(100000)))
		}
		price.Append(float64(r.Intn(20000)) / 100)
		state.Append(states[r.Intn(len(states))])
	}
	return columnar.MustNewTable("store_sales", date.Build(), qty.Build(), cust.Build(), price.Build(), state.Build())
}

var benchPreds = []struct {
	name string
	pred Expr
}{
	{"between", &Between{X: &Col{"ss_sold_date_sk"}, Lo: Int(2450200), Hi: Int(2450800)}},
	{"notnull_and_gt", &Logic{Op: And,
		Left:  &IsNull{X: &Col{"ss_customer_sk"}, Negate: true},
		Right: &Cmp{Op: Gt, Left: &Col{"ss_quantity"}, Right: Int(50)}}},
	{"float_gt_int", &Cmp{Op: Gt, Left: &Col{"ss_sales_price"}, Right: Int(100)}},
	{"string_eq", &Cmp{Op: Eq, Left: &Col{"s_state"}, Right: Str("TN")}},
}

var benchSink *columnar.Bitmap

// BenchmarkEvalPredicate compares the row-at-a-time reference scan with
// the bound scan (bind included) on one core.
func BenchmarkEvalPredicate(b *testing.B) {
	tbl := benchTable()
	for _, path := range []string{"reference", "bound"} {
		for _, p := range benchPreds {
			b.Run(fmt.Sprintf("%s/%s", path, p.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					if path == "reference" {
						benchSink, err = EvalPredicate(tbl, p.pred)
					} else {
						benchSink, err = EvalPredicateDegree(tbl, p.pred, 1)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

var benchColSink columnar.Column

// BenchmarkDerive materializes a computed column (bind included) on one
// core: mixed int*float arithmetic, as in a revenue expression.
func BenchmarkDerive(b *testing.B) {
	tbl := benchTable()
	e := &Arith{Op: Mul, Left: &Col{"ss_quantity"}, Right: &Col{"ss_sales_price"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bd, err := Bind(tbl, e)
		if err != nil {
			b.Fatal(err)
		}
		benchColSink = bd.Column("revenue", 1)
	}
}
