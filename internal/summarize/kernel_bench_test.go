package summarize

import (
	"fmt"
	"math/rand"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/fact"
	"cicero/internal/relation"
)

// benchProblem builds a deterministic mid-sized problem instance shaped
// like one pipeline solve: a few thousand rows, three dimension columns,
// and the full candidate fact set up to maxDims dimensions.
func benchProblem(b *testing.B, rows, maxDims int) (*relation.View, []fact.Fact, fact.Prior) {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	rel := randomRelation(rng, rows)
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: maxDims})
	prior := fact.MeanPrior(view, 0)
	return view, facts, prior
}

// BenchmarkEvaluatorBuild measures the per-problem evaluator construction
// (the R ⋊⋉M F join): the work the pipeline pays before every solve. The
// pooled path is what the pipeline runs; the fresh variant is the cost
// without buffer reuse.
func BenchmarkEvaluatorBuild(b *testing.B) {
	view, facts, prior := benchProblem(b, 2000, 2)
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := AcquireEvaluator(view, 0, facts, prior)
			if e.NumFacts() == 0 {
				b.Fatal("no facts")
			}
			ReleaseEvaluator(e)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if e := NewEvaluator(view, 0, facts, prior); e.NumFacts() == 0 {
				b.Fatal("no facts")
			}
		}
	})
}

// BenchmarkGreedySolve measures one full per-problem greedy solve —
// evaluator build plus Algorithm 2 — the unit of work the pre-processing
// pipeline repeats for thousands of problems.
func BenchmarkGreedySolve(b *testing.B) {
	view, facts, prior := benchProblem(b, 2000, 2)
	for _, mode := range []PruningMode{PruneNone, PruneOptimized} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := AcquireEvaluator(view, 0, facts, prior)
				sum := Greedy(e, Options{MaxFacts: 3, Pruning: mode})
				ReleaseEvaluator(e)
				if sum.Utility < 0 {
					b.Fatal("negative utility")
				}
			}
		})
	}
}

// BenchmarkExactSolve measures one full per-problem exact solve:
// evaluator build, greedy seed, then Algorithm 1's pruned enumeration.
func BenchmarkExactSolve(b *testing.B) {
	view, facts, prior := benchProblem(b, 600, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := AcquireEvaluator(view, 0, facts, prior)
		g := Greedy(e, Options{MaxFacts: 3})
		sum := Exact(e, Options{MaxFacts: 3, LowerBound: g.Utility})
		ReleaseEvaluator(e)
		if sum.Utility < g.Utility-1e-9 {
			b.Fatal("exact below greedy seed")
		}
	}
}

// BenchmarkExactParallelSolve measures the same per-problem exact solve
// through the parallel kernel at fixed worker counts, for side-by-side
// comparison with BenchmarkExactSolve (w1 isolates the task-queue
// overhead; w4 shows the subtree-parallel speedup on multi-core
// runners).
func BenchmarkExactParallelSolve(b *testing.B) {
	view, facts, prior := benchProblem(b, 600, 3)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := AcquireEvaluator(view, 0, facts, prior)
				g := Greedy(e, Options{MaxFacts: 3})
				sum := ExactParallel(e, Options{MaxFacts: 3, LowerBound: g.Utility, Workers: workers})
				ReleaseEvaluator(e)
				if sum.Utility < g.Utility-1e-9 {
					b.Fatal("exact below greedy seed")
				}
			}
		})
	}
}

// BenchmarkOptPrune measures G-O's pruning planner alone (Algorithm 4's
// candidate walk under the Section VI-C cost model) on a
// StackOverflow-shaped problem: seven dimension columns and facts of up
// to two dimensions, so 29 fact groups, as in the pre-processing batch.
func BenchmarkOptPrune(b *testing.B) {
	rel := dataset.StackOverflow(2000, 1)
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 2})
	e := NewEvaluator(view, 0, facts, fact.MeanPrior(view, 0))
	opts := Options{}.withDefaults()
	b.ReportMetric(float64(len(e.Groups())), "groups")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := OptPrune(e, opts); len(p.Source) == 0 {
			b.Fatal("empty plan")
		}
	}
}
