package relation

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// naiveGroupBy is the reference group-by: one map entry per distinct
// code combination, sums added in view row order, groups sorted by
// codes compared from the last grouped column to the first.
func naiveGroupBy(v *View, dims []int, target int) []Group {
	index := map[string]int{}
	var out []Group
	for i := 0; i < v.NumRows(); i++ {
		row := v.Row(i)
		codes := make([]int32, len(dims))
		for j, d := range dims {
			codes[j] = v.Rel.Dim(d).CodeAt(int(row))
		}
		key := fmt.Sprint(codes)
		gi, ok := index[key]
		if !ok {
			gi = len(out)
			index[key] = gi
			out = append(out, Group{Key: GroupKey{Codes: codes}})
		}
		out[gi].Count++
		if target >= 0 {
			out[gi].Sum += v.Rel.Target(target).At(int(row))
		}
	}
	slices.SortFunc(out, func(a, b Group) int {
		for j := len(dims) - 1; j >= 0; j-- {
			if c := cmp.Compare(a.Key.Codes[j], b.Key.Codes[j]); c != 0 {
				return c
			}
		}
		return 0
	})
	return out
}

// sameGroups reports the first difference between two group-by results:
// codes, counts and order must match, and sums bit for bit.
func sameGroups(got, want []Group) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !slices.Equal(g.Key.Codes, w.Key.Codes) || g.Count != w.Count ||
			math.Float64bits(g.Sum) != math.Float64bits(w.Sum) {
			return fmt.Errorf("group %d = %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// TestGroupByMatchesNaive compares GroupBy against the reference on
// random relations whose key spaces fall on both sides of the
// dense/map cut-over, on full and selected views, with and without a
// target, including the zero-dims (overall) group and empty views.
func TestGroupByMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	paths := map[bool]int{}
	for trial := 0; trial < 40; trial++ {
		cards := []int{1 + rng.Intn(4), 1 + rng.Intn(30), 1 + rng.Intn(400)}
		b := NewBuilder("rand", Schema{Dimensions: []string{"a", "b", "c"}, Targets: []string{"v"}})
		n := rng.Intn(300)
		for i := 0; i < n; i++ {
			dims := make([]string, len(cards))
			for j, c := range cards {
				dims[j] = strconv.Itoa(rng.Intn(c))
			}
			b.MustAddRow(dims, []float64{rng.NormFloat64()*1e3 + 1/(1+rng.Float64())})
		}
		r := b.Freeze()
		views := []*View{r.FullView()}
		if n > 0 {
			p := Predicate{Dim: 0, Code: r.Dim(0).CodeAt(rng.Intn(n))}
			views = append(views, r.FullView().Select([]Predicate{p}))
		}
		views = append(views, r.FullView().Select([]Predicate{{Dim: 1, Code: int32(r.Dim(1).Cardinality())}}))
		for _, v := range views {
			for _, dims := range [][]int{nil, {0}, {2}, {0, 1}, {1, 2}, {2, 0}, {0, 1, 2}} {
				_, stride, fits := r.ComboRadix(dims, nil)
				paths[fits && DenseKeySpace(stride, v.NumRows())]++
				for _, target := range []int{0, -1} {
					if err := sameGroups(v.GroupBy(dims, target), naiveGroupBy(v, dims, target)); err != nil {
						t.Fatalf("trial %d, %d rows, dims %v, target %d: %v", trial, v.NumRows(), dims, target, err)
					}
				}
			}
		}
	}
	if paths[true] == 0 || paths[false] == 0 {
		t.Fatalf("cases per path (dense: true) = %v, want both paths covered", paths)
	}
}

// TestGroupByEmptyView checks the empty and overall edge cases: an empty
// view has no groups, and grouping by no columns yields one group over
// every row.
func TestGroupByEmptyView(t *testing.T) {
	r := buildFlights(t)
	empty := r.FullView().Select([]Predicate{{Dim: 0, Code: int32(r.Dim(0).Cardinality())}})
	for _, dims := range [][]int{nil, {0}, {0, 1}} {
		if g := empty.GroupBy(dims, 0); g == nil || len(g) != 0 {
			t.Errorf("empty view, dims %v: groups = %#v, want an empty non-nil slice", dims, g)
		}
	}
	all := r.FullView().GroupBy(nil, 0)
	if len(all) != 1 || all[0].Count != r.NumRows() || len(all[0].Key.Codes) != 0 {
		t.Errorf("overall group = %+v", all)
	}
}

// TestGroupByKeyOverflow is the mixed-radix overflow regression: four
// columns that each take a distinct value per row make Π(card+1) exceed
// int64, so int64 combo keys collide. Every row is its own group, with
// the row's codes, in key order.
func TestGroupByKeyOverflow(t *testing.T) {
	const n = 1 << 16
	b := NewBuilder("wide", Schema{Dimensions: []string{"a", "b", "c", "d"}, Targets: []string{"v"}})
	for i := 0; i < n; i++ {
		s := strconv.Itoa(i)
		b.MustAddRow([]string{s, s, s, s}, []float64{float64(i)})
	}
	r := b.Freeze()
	dims := []int{0, 1, 2, 3}
	if _, _, fits := r.ComboRadix(dims, nil); fits {
		t.Fatal("key space unexpectedly fits an int64")
	}
	groups := r.FullView().GroupBy(dims, 0)
	if len(groups) != n {
		t.Fatalf("%d groups, want %d", len(groups), n)
	}
	for i, g := range groups {
		want := []int32{int32(i), int32(i), int32(i), int32(i)}
		if !slices.Equal(g.Key.Codes, want) || g.Count != 1 || g.Sum != float64(i) {
			t.Fatalf("group %d = %+v, want codes %v, one row, sum %d", i, g, want, i)
		}
	}
}
