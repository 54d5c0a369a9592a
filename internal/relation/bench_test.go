package relation

import (
	"math/rand"
	"strconv"
	"testing"
)

// BenchmarkGroupBy measures a two-column group-by with a sum over 5,000
// rows: "dense" groups 21×11 value combinations, like the fact groups of
// the pre-processing batch, and aggregates into key-indexed arrays;
// "map" groups two 3,000-value columns, whose key space is too large
// for arrays.
func BenchmarkGroupBy(b *testing.B) {
	const rows = 5000
	rng := rand.New(rand.NewSource(3))
	bld := NewBuilder("bench", Schema{Dimensions: []string{"a", "b", "c", "d"}, Targets: []string{"v"}})
	for i := 0; i < rows; i++ {
		bld.MustAddRow([]string{
			strconv.Itoa(rng.Intn(20)), strconv.Itoa(rng.Intn(10)),
			strconv.Itoa(rng.Intn(3000)), strconv.Itoa(rng.Intn(3000)),
		}, []float64{rng.NormFloat64()})
	}
	view := bld.Freeze().FullView()
	for _, c := range []struct {
		name string
		dims []int
	}{{"dense", []int{0, 1}}, {"map", []int{2, 3}}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(view.GroupBy(c.dims, 0)) == 0 {
					b.Fatal("no groups")
				}
			}
		})
	}
}
