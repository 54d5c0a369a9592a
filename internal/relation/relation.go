// Package relation implements the in-memory columnar relational engine
// that serves as the storage and query substrate for speech summarization.
//
// The paper executes its algorithms as a series of SQL queries against
// Postgres. This package provides the equivalent logical operators over an
// in-memory, dictionary-encoded columnar representation: equality-predicate
// selection (σ), grouping and aggregation (Γ), projection (Π), and the
// fact-scope join (⋊⋉ with condition M: fact value is NULL or equals the
// row value in every dimension column).
//
// A Relation is immutable after Freeze; concurrent reads are safe.
//
// Every stage of the generate → evaluate → solve → serve flow stands
// on this substrate: the generate stage enumerates queries over its
// dimension dictionaries, evaluate and solve aggregate its views, and
// the serve stage's run-time extrema and comparisons select from it
// directly.
package relation

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// NoValue marks an unrestricted dimension inside scopes and predicates.
// Dictionary codes are always non-negative, so -1 is never a valid value.
const NoValue = int32(-1)

// Schema describes the columns of a relation: dimension columns carry
// categorical values used in predicates and fact scopes, target columns
// carry the numerical values being summarized.
type Schema struct {
	Dimensions []string
	Targets    []string
}

// DimIndex returns the index of the named dimension column, or -1.
func (s *Schema) DimIndex(name string) int {
	for i, d := range s.Dimensions {
		if d == name {
			return i
		}
	}
	return -1
}

// TargetIndex returns the index of the named target column, or -1.
func (s *Schema) TargetIndex(name string) int {
	for i, t := range s.Targets {
		if t == name {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() Schema {
	return Schema{
		Dimensions: append([]string(nil), s.Dimensions...),
		Targets:    append([]string(nil), s.Targets...),
	}
}

// DimColumn is a dictionary-encoded categorical column. Row values are
// stored as int32 codes into the dictionary, keeping fact-scope matching a
// tight integer comparison loop.
type DimColumn struct {
	Name string
	dict []string
	code map[string]int32
	data []int32
}

// Cardinality returns the number of distinct values in the column.
func (c *DimColumn) Cardinality() int { return len(c.dict) }

// Value returns the string value for a dictionary code.
func (c *DimColumn) Value(code int32) string {
	if code < 0 || int(code) >= len(c.dict) {
		return ""
	}
	return c.dict[code]
}

// Code returns the dictionary code for a string value and whether the
// value appears in the column.
func (c *DimColumn) Code(value string) (int32, bool) {
	code, ok := c.code[value]
	return code, ok
}

// Values returns the dictionary in code order. The returned slice is a
// copy and may be modified by the caller.
func (c *DimColumn) Values() []string {
	return append([]string(nil), c.dict...)
}

// CodeAt returns the dictionary code of the given row.
func (c *DimColumn) CodeAt(row int) int32 { return c.data[row] }

// TargetColumn is a numerical column holding the values to summarize.
type TargetColumn struct {
	Name string
	data []float64
}

// At returns the value of the given row.
func (c *TargetColumn) At(row int) float64 { return c.data[row] }

// Data returns the underlying value slice. Callers must not modify it.
func (c *TargetColumn) Data() []float64 { return c.data }

// Relation is a set of rows with dimension and target columns
// (Definition 1 of the paper). It is immutable once built.
type Relation struct {
	name    string
	schema  Schema
	dims    []*DimColumn
	targets []*TargetColumn
	rows    int
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation schema.
func (r *Relation) Schema() *Schema { return &r.schema }

// NumRows returns the number of rows.
func (r *Relation) NumRows() int { return r.rows }

// Dim returns the dimension column at index i.
func (r *Relation) Dim(i int) *DimColumn { return r.dims[i] }

// DimByName returns the named dimension column, or nil.
func (r *Relation) DimByName(name string) *DimColumn {
	if i := r.schema.DimIndex(name); i >= 0 {
		return r.dims[i]
	}
	return nil
}

// NumDims returns the number of dimension columns.
func (r *Relation) NumDims() int { return len(r.dims) }

// Target returns the target column at index i.
func (r *Relation) Target(i int) *TargetColumn { return r.targets[i] }

// TargetByName returns the named target column, or nil.
func (r *Relation) TargetByName(name string) *TargetColumn {
	if i := r.schema.TargetIndex(name); i >= 0 {
		return r.targets[i]
	}
	return nil
}

// NumTargets returns the number of target columns.
func (r *Relation) NumTargets() int { return len(r.targets) }

// SizeBytes estimates the in-memory footprint of the relation, mirroring
// the data-set size column of Table I.
func (r *Relation) SizeBytes() int {
	size := 0
	for _, d := range r.dims {
		size += 4 * len(d.data)
		for _, v := range d.dict {
			size += len(v)
		}
	}
	for _, t := range r.targets {
		size += 8 * len(t.data)
	}
	return size
}

// Builder accumulates rows and produces an immutable Relation.
type Builder struct {
	name    string
	schema  Schema
	dims    []*DimColumn
	targets []*TargetColumn
	rows    int
}

// NewBuilder creates a builder for a relation with the given schema.
func NewBuilder(name string, schema Schema) *Builder {
	b := &Builder{name: name, schema: schema.Clone()}
	for _, d := range schema.Dimensions {
		b.dims = append(b.dims, &DimColumn{Name: d, code: make(map[string]int32)})
	}
	for _, t := range schema.Targets {
		b.targets = append(b.targets, &TargetColumn{Name: t})
	}
	return b
}

// AddRow appends a row. dims must have one string per dimension column and
// targets one float per target column, in schema order.
func (b *Builder) AddRow(dims []string, targets []float64) error {
	if len(dims) != len(b.dims) {
		return fmt.Errorf("relation %s: row has %d dimension values, schema has %d", b.name, len(dims), len(b.dims))
	}
	if len(targets) != len(b.targets) {
		return fmt.Errorf("relation %s: row has %d target values, schema has %d", b.name, len(targets), len(b.targets))
	}
	for i, v := range dims {
		col := b.dims[i]
		code, ok := col.code[v]
		if !ok {
			code = int32(len(col.dict))
			col.dict = append(col.dict, v)
			col.code[v] = code
		}
		col.data = append(col.data, code)
	}
	for i, v := range targets {
		b.targets[i].data = append(b.targets[i].data, v)
	}
	b.rows++
	return nil
}

// MustAddRow is AddRow that panics on schema mismatch; convenient for
// generators whose row shape is statically correct.
func (b *Builder) MustAddRow(dims []string, targets []float64) {
	if err := b.AddRow(dims, targets); err != nil {
		panic(err)
	}
}

// Freeze finishes building and returns the immutable relation. The builder
// must not be used afterwards.
func (b *Builder) Freeze() *Relation {
	r := &Relation{
		name:    b.name,
		schema:  b.schema,
		dims:    b.dims,
		targets: b.targets,
		rows:    b.rows,
	}
	b.dims, b.targets = nil, nil
	return r
}

// Predicate is an equality predicate on a dimension column, identified by
// column index and dictionary code.
type Predicate struct {
	Dim  int
	Code int32
}

// PredicateByName resolves a (column name, value) pair against the
// relation's dictionaries. It reports an error for unknown columns; an
// unknown value yields a predicate matching no rows (code NoValue-2 is
// never assigned, so we use a sentinel that never matches).
func (r *Relation) PredicateByName(column, value string) (Predicate, error) {
	di := r.schema.DimIndex(column)
	if di < 0 {
		return Predicate{}, fmt.Errorf("relation %s: no dimension column %q", r.name, column)
	}
	code, ok := r.dims[di].Code(value)
	if !ok {
		// A predicate on a value absent from the data selects no rows.
		return Predicate{Dim: di, Code: int32(len(r.dims[di].dict))}, nil
	}
	return Predicate{Dim: di, Code: code}, nil
}

// View is a subset of relation rows (the data subset a query refers to).
// A nil rows slice denotes the full relation.
type View struct {
	Rel  *Relation
	rows []int32
	full bool
}

// FullView returns a view over all rows of the relation.
func (r *Relation) FullView() *View {
	return &View{Rel: r, full: true}
}

// NumRows returns the number of rows in the view.
func (v *View) NumRows() int {
	if v.full {
		return v.Rel.rows
	}
	return len(v.rows)
}

// Row returns the relation row index of the i-th view row.
func (v *View) Row(i int) int32 {
	if v.full {
		return int32(i)
	}
	return v.rows[i]
}

// Rows returns the relation row indices of the view. For a full view the
// slice is materialized on first call.
func (v *View) Rows() []int32 {
	if v.full && v.rows == nil {
		v.rows = make([]int32, v.Rel.rows)
		for i := range v.rows {
			v.rows[i] = int32(i)
		}
	}
	return v.rows
}

// Select returns the sub-view of rows satisfying the conjunction of
// equality predicates (the relational σ operator).
func (v *View) Select(preds []Predicate) *View {
	if len(preds) == 0 {
		return v
	}
	out := &View{Rel: v.Rel}
	n := v.NumRows()
	for i := 0; i < n; i++ {
		row := v.Row(i)
		match := true
		for _, p := range preds {
			if v.Rel.dims[p.Dim].data[row] != p.Code {
				match = false
				break
			}
		}
		if match {
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// TargetStats summarizes a target column over the view.
type TargetStats struct {
	Count int
	Sum   float64
	Min   float64
	Max   float64
}

// Mean returns the average, or 0 for an empty view.
func (s TargetStats) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Stats computes summary statistics for a target column over the view.
func (v *View) Stats(target int) TargetStats {
	data := v.Rel.targets[target].data
	n := v.NumRows()
	if n == 0 {
		return TargetStats{}
	}
	st := TargetStats{Count: n, Min: data[v.Row(0)], Max: data[v.Row(0)]}
	for i := 0; i < n; i++ {
		val := data[v.Row(i)]
		st.Sum += val
		if val < st.Min {
			st.Min = val
		}
		if val > st.Max {
			st.Max = val
		}
	}
	return st
}

// GroupKey identifies a group in a group-by over dimension columns: the
// dictionary codes of the grouped columns, in the order they were given.
type GroupKey struct {
	Codes []int32
}

// Group is one result group of a group-by aggregation.
type Group struct {
	Key   GroupKey
	Count int
	Sum   float64
}

// Mean returns the group average, or 0 for an empty group.
func (g Group) Mean() float64 {
	if g.Count == 0 {
		return 0
	}
	return g.Sum / float64(g.Count)
}

// ComboRadix returns the mixed-radix multipliers that map a value-code
// combination over dims to an int64 key, Σ codes[i]·radix[i], reusing
// buf when it is large enough. Column i's digit has base
// Cardinality()+1, so distinct combinations get distinct keys and
// ascending key order compares codes from the last dim to the first.
// stride is the size of the key space, Π(Cardinality()+1); fits is
// false when that product overflows an int64, in which case the keys
// collide and callers must key combinations by AppendCombo instead.
func (r *Relation) ComboRadix(dims []int, buf []int64) (radix []int64, stride int64, fits bool) {
	if cap(buf) < len(dims) {
		buf = make([]int64, len(dims))
	}
	radix = buf[:len(dims)]
	stride, fits = 1, true
	for i, d := range dims {
		radix[i] = stride
		base := int64(r.dims[d].Cardinality()) + 1
		if stride > math.MaxInt64/base {
			fits = false
		}
		stride *= base
	}
	return radix, stride, fits
}

// ComboKey maps a code combination to its key under radix.
func ComboKey(codes []int32, radix []int64) int64 {
	key := int64(0)
	for i, c := range codes {
		key += int64(c) * radix[i]
	}
	return key
}

// RowComboKey is ComboKey of the row's codes over dims.
func (r *Relation) RowComboKey(row int32, dims []int, radix []int64) int64 {
	key := int64(0)
	for i, d := range dims {
		key += int64(r.dims[d].data[row]) * radix[i]
	}
	return key
}

// AppendCombo appends a collision-free composite key of a code
// combination to buf: four big-endian bytes per code, last code first,
// so that byte order is ascending ComboKey order. It keys combinations
// whose ComboRadix key space does not fit an int64.
func AppendCombo(buf []byte, codes []int32) []byte {
	for i := len(codes) - 1; i >= 0; i-- {
		buf = binary.BigEndian.AppendUint32(buf, uint32(codes[i]))
	}
	return buf
}

// AppendRowCombo is AppendCombo of the row's codes over dims.
func (r *Relation) AppendRowCombo(buf []byte, row int32, dims []int) []byte {
	for i := len(dims) - 1; i >= 0; i-- {
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.dims[dims[i]].data[row]))
	}
	return buf
}

// DenseKeySpace reports whether a key space of stride keys is small
// enough, relative to an input of n rows, to aggregate into arrays
// indexed by key: at most four slots per row, plus 256 so that small
// inputs over small dictionaries stay dense too. Larger key spaces are
// mostly empty and aggregate through a map instead.
func DenseKeySpace(stride int64, n int) bool {
	return stride <= 4*int64(n)+256
}

// GroupBy aggregates a target column grouped by the given dimension
// columns (the relational Γ operator with SUM/COUNT, from which AVG is
// derived). A negative target index counts rows without aggregating a sum.
// Groups are returned in ascending ComboRadix key order, and each sum
// adds its rows in view order.
//
// When the key space is small relative to the view (DenseKeySpace), the
// rows aggregate into dense count/sum arrays indexed by key, the array
// layout of Gray et al.'s data cube, which are then read out in key
// order. Larger key spaces aggregate through a map keyed by the int64
// combo key, or by the composite AppendCombo key when ComboRadix
// overflows.
func (v *View) GroupBy(dims []int, target int) []Group {
	radix, stride, fits := v.Rel.ComboRadix(dims, nil)
	var data []float64
	if target >= 0 {
		data = v.Rel.targets[target].data
	}
	switch {
	case fits && DenseKeySpace(stride, v.NumRows()):
		return v.groupByDense(dims, radix, stride, data)
	case fits:
		return groupByMap(v, dims, data, func(row int32) int64 {
			return v.Rel.RowComboKey(row, dims, radix)
		})
	default:
		var buf []byte
		return groupByMap(v, dims, data, func(row int32) string {
			buf = v.Rel.AppendRowCombo(buf[:0], row, dims)
			return string(buf)
		})
	}
}

// groupByDense is GroupBy over count/sum arrays indexed by combo key.
func (v *View) groupByDense(dims []int, radix []int64, stride int64, data []float64) []Group {
	counts := make([]int32, stride)
	var sums []float64
	if data != nil {
		sums = make([]float64, stride)
	}
	n := v.NumRows()
	for i := 0; i < n; i++ {
		row := v.Row(i)
		key := v.Rel.RowComboKey(row, dims, radix)
		counts[key]++
		if data != nil {
			sums[key] += data[row]
		}
	}
	ng := 0
	for _, c := range counts {
		if c > 0 {
			ng++
		}
	}
	out := make([]Group, 0, ng)
	codes := make([]int32, ng*len(dims))
	for key, c := range counts {
		if c == 0 {
			continue
		}
		k := codes[:len(dims):len(dims)]
		codes = codes[len(dims):]
		rem := int64(key)
		for j := len(dims) - 1; j >= 0; j-- {
			k[j] = int32(rem / radix[j])
			rem %= radix[j]
		}
		g := Group{Key: GroupKey{Codes: k}, Count: int(c)}
		if data != nil {
			g.Sum = sums[key]
		}
		out = append(out, g)
	}
	return out
}

// groupByMap is GroupBy through a map from each row's combination key
// to its group; the keys are then sorted, and their order is the
// combinations' order.
func groupByMap[K cmp.Ordered](v *View, dims []int, data []float64, keyOf func(row int32) K) []Group {
	index := make(map[K]int)
	var (
		groups []Group
		keys   []K
		codes  []int32 // every group's codes, len(dims) per group
	)
	n := v.NumRows()
	for i := 0; i < n; i++ {
		row := v.Row(i)
		key := keyOf(row)
		gi, ok := index[key]
		if !ok {
			gi = len(groups)
			index[key] = gi
			keys = append(keys, key)
			for _, d := range dims {
				codes = append(codes, v.Rel.dims[d].data[row])
			}
			groups = append(groups, Group{})
		}
		groups[gi].Count++
		if data != nil {
			groups[gi].Sum += data[row]
		}
	}
	slices.Sort(keys)
	k := len(dims)
	out := make([]Group, len(keys))
	for i, key := range keys {
		gi := index[key]
		out[i] = groups[gi]
		out[i].Key.Codes = codes[gi*k : (gi+1)*k : (gi+1)*k]
	}
	return out
}

// DistinctCombinations returns the distinct value-code combinations of the
// given dimension columns that appear in the view, in deterministic order.
// This drives fact enumeration: the paper considers equality predicates
// "for all value combinations that appear in the data set".
func (v *View) DistinctCombinations(dims []int) [][]int32 {
	groups := v.GroupBy(dims, -1)
	out := make([][]int32, len(groups))
	for i, g := range groups {
		out[i] = g.Key.Codes
	}
	return out
}
