package columnar

import (
	"fmt"
	"sort"
)

// Column is one immutable column of a table.
type Column interface {
	// Name is the column's name within its table.
	Name() string
	// Type is the logical type.
	Type() Type
	// Len is the row count.
	Len() int
	// IsNull reports whether row i is NULL.
	IsNull(i int) bool
	// Value materializes row i as a Value (slow path; kernels use the
	// typed accessors on the concrete types).
	Value(i int) Value
}

// --- Int64 ---

// Int64Column is a flat vector of 64-bit integers with an optional null
// bitmap (nil when no row is NULL).
type Int64Column struct {
	name  string
	data  []int64
	nulls *Bitmap
}

// NewInt64Column builds a column from data; nulls may be nil.
func NewInt64Column(name string, data []int64, nulls *Bitmap) *Int64Column {
	return &Int64Column{name: name, data: data, nulls: nulls}
}

func (c *Int64Column) Name() string { return c.name }
func (c *Int64Column) Type() Type   { return Int64 }
func (c *Int64Column) Len() int     { return len(c.data) }
func (c *Int64Column) IsNull(i int) bool {
	return c.nulls != nil && c.nulls.Get(i)
}
func (c *Int64Column) Value(i int) Value {
	if c.IsNull(i) {
		return NullValue(Int64)
	}
	return IntValue(c.data[i])
}

// Int64 returns the raw value of row i (undefined for NULL rows).
func (c *Int64Column) Int64(i int) int64 { return c.data[i] }

// Data exposes the backing vector for kernel-speed scans.
func (c *Int64Column) Data() []int64 { return c.data }

// Nulls exposes the null bitmap; nil when no row is NULL.
func (c *Int64Column) Nulls() *Bitmap { return c.nulls }

// --- Float64 ---

// Float64Column is a flat vector of float64 with an optional null bitmap.
type Float64Column struct {
	name  string
	data  []float64
	nulls *Bitmap
}

// NewFloat64Column builds a column from data; nulls may be nil.
func NewFloat64Column(name string, data []float64, nulls *Bitmap) *Float64Column {
	return &Float64Column{name: name, data: data, nulls: nulls}
}

func (c *Float64Column) Name() string { return c.name }
func (c *Float64Column) Type() Type   { return Float64 }
func (c *Float64Column) Len() int     { return len(c.data) }
func (c *Float64Column) IsNull(i int) bool {
	return c.nulls != nil && c.nulls.Get(i)
}
func (c *Float64Column) Value(i int) Value {
	if c.IsNull(i) {
		return NullValue(Float64)
	}
	return FloatValue(c.data[i])
}

// Float64 returns the raw value of row i.
func (c *Float64Column) Float64(i int) float64 { return c.data[i] }

// Data exposes the backing vector.
func (c *Float64Column) Data() []float64 { return c.data }

// Nulls exposes the null bitmap; nil when no row is NULL.
func (c *Float64Column) Nulls() *Bitmap { return c.nulls }

// --- String (dictionary-encoded) ---

// StringColumn stores strings as 32-bit codes into a sorted dictionary —
// BLU's dictionary compression. Grouping and equality run on codes;
// order comparisons also run on codes because the dictionary is sorted.
type StringColumn struct {
	name  string
	dict  []string // sorted, unique
	codes []int32
	nulls *Bitmap
}

// NewStringColumn builds a column from a sorted, duplicate-free
// dictionary and codes into it; nulls may be nil.
func NewStringColumn(name string, dict []string, codes []int32, nulls *Bitmap) *StringColumn {
	return &StringColumn{name: name, dict: dict, codes: codes, nulls: nulls}
}

func (c *StringColumn) Name() string { return c.name }
func (c *StringColumn) Type() Type   { return String }
func (c *StringColumn) Len() int     { return len(c.codes) }
func (c *StringColumn) IsNull(i int) bool {
	return c.nulls != nil && c.nulls.Get(i)
}
func (c *StringColumn) Value(i int) Value {
	if c.IsNull(i) {
		return NullValue(String)
	}
	return StringValue(c.dict[c.codes[i]])
}

// Code returns the dictionary code of row i.
func (c *StringColumn) Code(i int) int32 { return c.codes[i] }

// Codes exposes the backing code vector.
func (c *StringColumn) Codes() []int32 { return c.codes }

// Nulls exposes the null bitmap; nil when no row is NULL.
func (c *StringColumn) Nulls() *Bitmap { return c.nulls }

// Dict exposes the sorted dictionary; callers must not modify it.
func (c *StringColumn) Dict() []string { return c.dict }

// DictSize returns the number of distinct values in the dictionary.
func (c *StringColumn) DictSize() int { return len(c.dict) }

// Decode maps a code back to its string.
func (c *StringColumn) Decode(code int32) string { return c.dict[code] }

// Lookup returns the code for s and whether s is in the dictionary.
func (c *StringColumn) Lookup(s string) (int32, bool) {
	i := sort.SearchStrings(c.dict, s)
	if i < len(c.dict) && c.dict[i] == s {
		return int32(i), true
	}
	return 0, false
}

// --- Builders ---

// Int64Builder accumulates an Int64Column.
type Int64Builder struct {
	name  string
	data  []int64
	nulls []int
}

// NewInt64Builder returns a builder for the named column.
func NewInt64Builder(name string) *Int64Builder { return &Int64Builder{name: name} }

// Append adds one value.
func (b *Int64Builder) Append(v int64) { b.data = append(b.data, v) }

// AppendNull adds one NULL.
func (b *Int64Builder) AppendNull() {
	b.nulls = append(b.nulls, len(b.data))
	b.data = append(b.data, 0)
}

// Len returns the rows appended so far.
func (b *Int64Builder) Len() int { return len(b.data) }

// Build freezes the column.
func (b *Int64Builder) Build() *Int64Column {
	return &Int64Column{name: b.name, data: b.data, nulls: buildNulls(len(b.data), b.nulls)}
}

// Float64Builder accumulates a Float64Column.
type Float64Builder struct {
	name  string
	data  []float64
	nulls []int
}

// NewFloat64Builder returns a builder for the named column.
func NewFloat64Builder(name string) *Float64Builder { return &Float64Builder{name: name} }

// Append adds one value.
func (b *Float64Builder) Append(v float64) { b.data = append(b.data, v) }

// AppendNull adds one NULL.
func (b *Float64Builder) AppendNull() {
	b.nulls = append(b.nulls, len(b.data))
	b.data = append(b.data, 0)
}

// Len returns the rows appended so far.
func (b *Float64Builder) Len() int { return len(b.data) }

// Build freezes the column.
func (b *Float64Builder) Build() *Float64Column {
	return &Float64Column{name: b.name, data: b.data, nulls: buildNulls(len(b.data), b.nulls)}
}

// StringBuilder accumulates a dictionary-encoded StringColumn.
type StringBuilder struct {
	name   string
	values []string
	nulls  []int
}

// NewStringBuilder returns a builder for the named column.
func NewStringBuilder(name string) *StringBuilder { return &StringBuilder{name: name} }

// Append adds one value.
func (b *StringBuilder) Append(v string) { b.values = append(b.values, v) }

// AppendNull adds one NULL.
func (b *StringBuilder) AppendNull() {
	b.nulls = append(b.nulls, len(b.values))
	b.values = append(b.values, "")
}

// Len returns the rows appended so far.
func (b *StringBuilder) Len() int { return len(b.values) }

// Build freezes the column, constructing the sorted dictionary.
func (b *StringBuilder) Build() *StringColumn {
	distinct := make(map[string]struct{}, len(b.values))
	for _, v := range b.values {
		distinct[v] = struct{}{}
	}
	dict := make([]string, 0, len(distinct))
	for v := range distinct {
		dict = append(dict, v)
	}
	sort.Strings(dict)
	codeOf := make(map[string]int32, len(dict))
	for i, v := range dict {
		codeOf[v] = int32(i)
	}
	codes := make([]int32, len(b.values))
	for i, v := range b.values {
		codes[i] = codeOf[v]
	}
	return &StringColumn{
		name:  b.name,
		dict:  dict,
		codes: codes,
		nulls: buildNulls(len(b.values), b.nulls),
	}
}

func buildNulls(n int, nullRows []int) *Bitmap {
	if len(nullRows) == 0 {
		return nil
	}
	bm := NewBitmap(n)
	for _, i := range nullRows {
		bm.Set(i)
	}
	return bm
}

// ColumnFromValues builds a column of the given type from generic values
// (used by tests and the SQL shell's INSERT path).
func ColumnFromValues(name string, t Type, values []Value) (Column, error) {
	switch t {
	case Int64:
		b := NewInt64Builder(name)
		for _, v := range values {
			if v.Null {
				b.AppendNull()
			} else {
				b.Append(v.I)
			}
		}
		return b.Build(), nil
	case Float64:
		b := NewFloat64Builder(name)
		for _, v := range values {
			if v.Null {
				b.AppendNull()
			} else {
				b.Append(v.F)
			}
		}
		return b.Build(), nil
	case String:
		b := NewStringBuilder(name)
		for _, v := range values {
			if v.Null {
				b.AppendNull()
			} else {
				b.Append(v.S)
			}
		}
		return b.Build(), nil
	default:
		return nil, fmt.Errorf("columnar: unsupported type %v", t)
	}
}
