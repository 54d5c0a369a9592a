package main

import (
	"math/rand"
	"time"

	"cicero/internal/engine"
	"cicero/internal/relation"
)

// minRows is serve.Options.MinExtremumRows' default, which the served
// Answerer runs with.
const minRows = 10

// kernelCall is one call into a run-time aggregation kernel of the
// engine, named after the metric it feeds (engine.topk, ...).
type kernelCall struct {
	name string
	run  func() error
}

// timed runs the call and returns its duration.
func (k kernelCall) timed() time.Duration {
	t0 := time.Now()
	_ = k.run() // a kernel error is an answer the server apologizes for; its cost still counts
	return time.Since(t0)
}

// kernelProbes draws n seeded calls of every kernel over rel, so each
// kernel is timed on every workload whatever its traffic asks: a random
// target and grouping dimension, half the time restricted by one value
// of another dimension. Trends run over the month dimension, or the
// first dimension of a relation without one.
func kernelProbes(rel *relation.Relation, n int, seed int64) []kernelCall {
	rng := rand.New(rand.NewSource(seed))
	targets, dims := rel.Schema().Targets, rel.Schema().Dimensions
	timeDim := dims[0]
	for _, d := range dims {
		if d == "month" {
			timeDim = d
		}
	}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	restrict := func(not string) []relation.Predicate {
		if rng.Intn(2) == 0 {
			return nil
		}
		d := pick(dims)
		if d == not {
			return nil
		}
		p, err := rel.PredicateByName(d, pick(rel.DimByName(d).Values()))
		if err != nil {
			return nil
		}
		return []relation.Predicate{p}
	}
	var out []kernelCall
	for i := 0; i < n; i++ {
		target, dim := pick(targets), pick(dims)
		dir := engine.ExtremumKind(rng.Intn(2))
		preds := restrict(dim)
		out = append(out, kernelCall{name: "engine.extremum", run: func() error {
			_, err := engine.AnswerExtremum(rel, target, dim, preds, dir, minRows)
			return err
		}})
		k := 2 + rng.Intn(4)
		out = append(out, kernelCall{name: "engine.topk", run: func() error {
			_, err := engine.AnswerTopK(rel, target, dim, preds, dir, k, minRows, nil)
			return err
		}})
		periods := rel.DimByName(timeDim).Values()
		from := rng.Intn(len(periods) - 1)
		to := from + 1 + rng.Intn(len(periods)-from-1)
		tpreds := restrict(timeDim)
		out = append(out, kernelCall{name: "engine.trend", run: func() error {
			_, err := engine.AnswerTrend(rel, target, timeDim, periods[from:to+1], tpreds, minRows)
			return err
		}})
		ct := pick(targets)
		mean := rel.FullView().Stats(rel.Schema().TargetIndex(ct)).Mean()
		cons := engine.Constraint{Target: ct, Op: engine.Over, Value: twoDigits(mean * (0.3 + rng.Float64()))}
		out = append(out, kernelCall{name: "engine.constrained", run: func() error {
			_, err := engine.AnswerConstrained(rel, target, dim, preds, cons, minRows)
			return err
		}})
		vals := rel.DimByName(dim).Values()
		a, b := rng.Intn(len(vals)), rng.Intn(len(vals))
		// Both values come from the dimension's dictionary, so they resolve.
		pa, _ := rel.PredicateByName(dim, vals[a])
		pb, _ := rel.PredicateByName(dim, vals[b])
		out = append(out, kernelCall{name: "engine.comparison", run: func() error {
			_, err := engine.AnswerComparison(rel, target, []relation.Predicate{pa}, []relation.Predicate{pb})
			return err
		}})
	}
	return out
}
