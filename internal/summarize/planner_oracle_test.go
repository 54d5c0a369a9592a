package summarize_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/fact"
	"cicero/internal/stats"
	"cicero/internal/summarize"
)

// This file keeps the direct implementation of the pruning planner as
// the reference the incremental planner must reproduce: Algorithm 4's
// candidate plans are materialized one by one, and each is priced from
// scratch under the Section VI-C cost model. The incremental planner
// performs the same floating-point operations in the same order, so the
// plans must match exactly, not within a tolerance.

// planContext caches the per-group statistics the cost model needs:
// M(g), the number of facts per group (the paper estimates it from query
// optimizer statistics; our engine knows it exactly, which only makes
// the estimate of the same quantity sharper).
type planContext struct {
	e     *summarize.Evaluator
	opts  summarize.Options
	m     []int   // M(g) per group
	byM   []int   // group indices sorted by ascending M(g)
	nRows float64 // rows in the view
}

func newPlanContext(e *summarize.Evaluator, opts summarize.Options) *planContext {
	groups := e.Groups()
	ctx := &planContext{e: e, opts: opts, nRows: float64(e.NumRows())}
	ctx.m = make([]int, len(groups))
	for i := range groups {
		ctx.m[i] = len(groups[i].Facts)
	}
	ctx.byM = make([]int, len(groups))
	for i := range ctx.byM {
		ctx.byM[i] = i
	}
	sort.SliceStable(ctx.byM, func(a, b int) bool {
		return ctx.m[ctx.byM[a]] < ctx.m[ctx.byM[b]]
	})
	return ctx
}

// dimsSubset reports whether a ⊆ b for ascending dim slices.
func dimsSubset(a, b []int) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// costUtility is CU(g): the estimated cost of computing utility for every
// fact of group g, a join pairing rows with in-scope facts.
func (ctx *planContext) costUtility(gi int) float64 {
	return ctx.opts.JoinCost * (ctx.nRows + float64(ctx.m[gi]))
}

// costBound is CD(g): the estimated cost of the deviation group-by that
// produces the group's pruning bound.
func (ctx *planContext) costBound(gi int) float64 {
	return ctx.opts.GroupCost * (ctx.nRows + float64(ctx.m[gi]))
}

// probSourceBeatsTarget is Pr(P_{s→t}): the probability that the maximal
// source gain exceeds the target bound.
func (ctx *planContext) probSourceBeatsTarget(si, ti int) float64 {
	muS := 1 / float64(max(1, ctx.m[si]))
	muT := 1 / float64(max(1, ctx.m[ti]))
	return stats.ProbGreater(muS, muT, ctx.opts.Sigma)
}

// probPruned is Pr(P_t) for a target given the source set: one minus the
// probability that no source dominates it (independence assumption).
func (ctx *planContext) probPruned(source []int, ti int) float64 {
	notPruned := 1.0
	for _, si := range source {
		notPruned *= 1 - ctx.probSourceBeatsTarget(si, ti)
	}
	return 1 - notPruned
}

// probSurvives is Pr(¬P_g): the probability that group g survives all
// pruning attempts, i.e. no chosen target that generalizes g is pruned.
func (ctx *planContext) probSurvives(plan summarize.Plan, gi int) float64 {
	groups := ctx.e.Groups()
	p := 1.0
	for _, ti := range plan.Targets {
		if !dimsSubset(groups[ti].Dims, groups[gi].Dims) {
			continue
		}
		for _, si := range plan.Source {
			p *= 1 - ctx.probSourceBeatsTarget(si, ti)
		}
	}
	return p
}

// planCost estimates the total data-processing cost of a pruning plan:
// source utility scans, target bound computations, and the expected cost
// of scanning unpruned groups.
func (ctx *planContext) planCost(plan summarize.Plan) float64 {
	inSource := make(map[int]bool, len(plan.Source))
	cost := 0.0
	for _, si := range plan.Source {
		cost += ctx.costUtility(si)
		inSource[si] = true
	}
	for _, ti := range plan.Targets {
		cost += ctx.costBound(ti)
	}
	for gi := range ctx.e.Groups() {
		if inSource[gi] {
			continue
		}
		cost += ctx.probSurvives(plan, gi) * ctx.costUtility(gi)
	}
	return cost
}

// heuristicValue is H(t, S, L): the expected number of fact groups
// removed by pruning target t — its pruning probability times the number
// of groups in L it generalizes.
func (ctx *planContext) heuristicValue(ti int, source []int, left map[int]bool) float64 {
	groups := ctx.e.Groups()
	covered := 0
	for gi := range left {
		if dimsSubset(groups[ti].Dims, groups[gi].Dims) {
			covered++
		}
	}
	return ctx.probPruned(source, ti) * float64(covered)
}

// candidatePlans materializes Algorithm 4's candidates in order.
func candidatePlans(ctx *planContext) []summarize.Plan {
	groups := ctx.e.Groups()
	var plans []summarize.Plan
	for prefix := 1; prefix <= len(ctx.byM); prefix++ {
		source := append([]int(nil), ctx.byM[:prefix]...)
		if prefix == len(ctx.byM) {
			plans = append(plans, summarize.Plan{Source: source})
			break
		}
		left := make(map[int]bool)
		for _, gi := range ctx.byM[prefix:] {
			left[gi] = true
		}
		var targets []int
		for len(left) > 0 {
			bestT, bestH := -1, -1.0
			for gi := range left {
				if h := ctx.heuristicValue(gi, source, left); h > bestH || (h == bestH && (bestT < 0 || gi < bestT)) {
					bestH, bestT = h, gi
				}
			}
			targets = append(targets, bestT)
			plans = append(plans, summarize.Plan{
				Source:  source,
				Targets: append([]int(nil), targets...),
			})
			for gi := range left {
				if dimsSubset(groups[bestT].Dims, groups[gi].Dims) {
					delete(left, gi)
				}
			}
		}
	}
	return plans
}

// refOptPrune selects the minimum-cost candidate, the first on ties.
func refOptPrune(e *summarize.Evaluator, opts summarize.Options) summarize.Plan {
	ctx := newPlanContext(e, opts)
	plans := candidatePlans(ctx)
	best := plans[0]
	bestCost := ctx.planCost(best)
	for _, p := range plans[1:] {
		if c := ctx.planCost(p); c < bestCost {
			best, bestCost = p, c
		}
	}
	return best
}

// refNaivePlan is the G-P plan: the smallest group as the only source and
// every remaining group as a target, in Algorithm 4's order.
func refNaivePlan(e *summarize.Evaluator, opts summarize.Options) summarize.Plan {
	ctx := newPlanContext(e, opts)
	if len(ctx.byM) == 0 {
		return summarize.Plan{}
	}
	source := []int{ctx.byM[0]}
	left := make(map[int]bool)
	for _, gi := range ctx.byM[1:] {
		left[gi] = true
	}
	var targets []int
	groups := e.Groups()
	for len(left) > 0 {
		bestT, bestH := -1, -1.0
		for gi := range left {
			if h := ctx.heuristicValue(gi, source, left); h > bestH || (h == bestH && (bestT < 0 || gi < bestT)) {
				bestH, bestT = h, gi
			}
		}
		targets = append(targets, bestT)
		for gi := range left {
			if dimsSubset(groups[bestT].Dims, groups[gi].Dims) {
				delete(left, gi)
			}
		}
	}
	return summarize.Plan{Source: source, Targets: targets}
}

// samePlan reports whether two plans have identical sources and targets,
// including whether the target list is nil.
func samePlan(a, b summarize.Plan) bool {
	return slices.Equal(a.Source, b.Source) && slices.Equal(a.Targets, b.Targets) &&
		(a.Targets == nil) == (b.Targets == nil)
}

// checkPlans compares OptPrune and NaivePlan against the reference.
func checkPlans(t *testing.T, what string, e *summarize.Evaluator, opts summarize.Options) {
	t.Helper()
	if got, want := summarize.OptPrune(e, opts), refOptPrune(e, opts); !samePlan(got, want) {
		t.Fatalf("%s: OptPrune = %+v, reference %+v", what, got, want)
	}
	if got, want := summarize.NaivePlan(e, opts), refNaivePlan(e, opts); !samePlan(got, want) {
		t.Fatalf("%s: NaivePlan = %+v, reference %+v", what, got, want)
	}
}

// TestPlannerMatchesReferenceRandom checks the planners on random
// relations across fact widths and cost-model parameters.
func TestPlannerMatchesReferenceRandom(t *testing.T) {
	for _, seed := range []int64{8, 13, 17, 21, 31} {
		rng := rand.New(rand.NewSource(seed))
		for _, rows := range []int{1, 7, 50, 300} {
			rel := summarize.RandomRelation(rng, rows)
			view := rel.FullView()
			for maxDims := 0; maxDims <= 3; maxDims++ {
				facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: maxDims})
				e := summarize.NewEvaluator(view, 0, facts, fact.MeanPrior(view, 0))
				for _, opts := range []summarize.Options{
					{},
					{Sigma: 0.05, JoinCost: 5, GroupCost: 0.5},
					{Sigma: 2},
				} {
					checkPlans(t, "random", e, opts.WithDefaults())
				}
			}
		}
	}
}

// TestPlannerMatchesReferenceDatasets checks the planners on every
// problem of the flights, housing and StackOverflow batches under the
// default configuration, through one pooled evaluator as the pipeline
// runs them.
func TestPlannerMatchesReferenceDatasets(t *testing.T) {
	for _, name := range []string{"flights", "housing", "stackoverflow"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rel := dataset.ByName(name, 1)
			cfg := engine.DefaultConfig(rel)
			opts := summarize.Options{MaxFacts: cfg.MaxFacts}.WithDefaults()
			problems := 0
			err := engine.EachProblem(rel, cfg, func(p engine.Problem) error {
				facts := p.GenerateFacts(cfg.MaxFactDims)
				if len(facts) == 0 {
					return nil
				}
				e := summarize.AcquireEvaluator(p.View, p.Target, facts, p.Prior)
				checkPlans(t, p.Query.Key(), e, opts)
				summarize.ReleaseEvaluator(e)
				problems++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if problems == 0 {
				t.Fatal("no problems enumerated")
			}
			t.Logf("%d problems", problems)
		})
	}
}
