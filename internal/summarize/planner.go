package summarize

import (
	"cmp"
	"slices"

	"cicero/internal/stats"
)

// Plan is a pruning strategy: utility is computed for all facts of the
// Source groups first, then the Targets (in order) are tested against the
// best source gain via deviation bounds; surviving groups are scanned
// exactly (Algorithm 3).
type Plan struct {
	Source  []int // group indices whose facts are scanned first
	Targets []int // group indices to try pruning, in order
}

// planner walks Algorithm 4's candidate plans for one problem and prices
// each under the Section VI-C cost model without materializing them.
//
// Every quantity the cost model needs is either memoized once per
// problem or kept as a running value while the walk extends its source
// prefix and target sequence:
//
//   - q[s·G+t] = 1 − Pr(P_{s→t}), computed once per (source, target)
//     pair when s joins the source;
//   - gen[t·G+g] records whether group t generalizes group g;
//   - notPruned[t] = Π_{s∈S} q[s,t], so Pr(P_t) = 1 − notPruned[t];
//   - surv[g] = Pr(¬P_g), multiplied by q[s,t] for every source s when
//     a target t that generalizes g is appended;
//   - the source and target terms of the plan cost run along the walk.
//
// The multiplications and additions happen in the same order as a
// direct evaluation of each candidate plan, so every cost, and therefore
// every chosen plan, is bit-identical to pricing the candidates one by
// one.
//
// M(g), the number of facts per group, is the paper's optimizer-statistics
// estimate; the evaluator knows it exactly, which only makes the
// estimate of the same quantity sharper.
type planner struct {
	g         int
	byM       []int     // group indices sorted by ascending M(g), stable
	mu        []float64 // expected per-fact utility 1/M(g)
	cu        []float64 // CU(g): cost of computing utility for g's facts
	cd        []float64 // CD(g): cost of g's deviation bound
	sigma     float64
	q         []float64
	gen       []bool
	notPruned []float64
	surv      []float64
	inSource  []bool
	inLeft    []bool
	cover     []int // |{x ∈ L : t generalizes x}| per group t
	targets   []int
}

// planner resets the evaluator's reusable planner for its current
// problem under the cost-model parameters of opts.
func (e *Evaluator) planner(opts Options) *planner {
	pl := &e.plan
	groups := e.Groups()
	g := len(groups)
	nRows := float64(e.NumRows())
	pl.g = g
	pl.sigma = opts.Sigma
	pl.byM = growInt(pl.byM, g)
	pl.mu = growF64(pl.mu, g)
	pl.cu = growF64(pl.cu, g)
	pl.cd = growF64(pl.cd, g)
	pl.q = growF64(pl.q, g*g)
	pl.notPruned = growF64(pl.notPruned, g)
	pl.surv = growF64(pl.surv, g)
	pl.cover = growInt(pl.cover, g)
	pl.gen = growBool(pl.gen, g*g)
	pl.inSource = growBool(pl.inSource, g)
	pl.inLeft = growBool(pl.inLeft, g)
	for i := range groups {
		m := len(groups[i].Facts)
		pl.byM[i] = i
		pl.mu[i] = 1 / float64(max(1, m))
		pl.cu[i] = opts.JoinCost * (nRows + float64(m))
		pl.cd[i] = opts.GroupCost * (nRows + float64(m))
		pl.notPruned[i] = 1
		pl.inSource[i] = false
		for x := range groups {
			pl.gen[i*g+x] = dimsSubset(groups[i].Dims, groups[x].Dims)
		}
	}
	slices.SortStableFunc(pl.byM, func(a, b int) int {
		return cmp.Compare(len(groups[a].Facts), len(groups[b].Facts))
	})
	return pl
}

// growBool is growI32 for bool slices.
func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// addSource moves group s into the source set and folds 1 − Pr(P_{s→t})
// into the not-pruned product of every group t still outside it. Per-fact
// utility is modeled as a sum of i.i.d. per-row contributions; with rows
// spread uniformly over value combinations, the per-fact mean is
// inversely proportional to the group's fact count, and both sides share
// variance σ² (Section VI-C).
func (pl *planner) addSource(s int, rest []int) {
	pl.inSource[s] = true
	for _, t := range rest {
		q := 1 - stats.ProbGreater(pl.mu[s], pl.mu[t], pl.sigma)
		pl.q[s*pl.g+t] = q
		pl.notPruned[t] *= q
	}
}

// nextTarget picks the group of L with the largest H(t, S, L): the
// expected number of fact groups removed by pruning t, its pruning
// probability times the number of groups in L it generalizes (Section
// VI-D). Ties go to the smallest group index.
func (pl *planner) nextTarget(rest []int) int {
	bestT, bestH := -1, -1.0
	for _, t := range rest {
		if !pl.inLeft[t] {
			continue
		}
		if h := (1 - pl.notPruned[t]) * float64(pl.cover[t]); h > bestH || (h == bestH && (bestT < 0 || t < bestT)) {
			bestH, bestT = h, t
		}
	}
	return bestT
}

// walk implements Algorithm 4 for source prefixes of up to maxPrefix
// groups. Pruning sources are prefixes of the groups sorted by ascending
// fact count (groups with few facts have the highest expected per-fact
// utility); for each source, targets are added greedily by the H
// heuristic, and every intermediate target set is a candidate. The
// full-scan plan (all groups as source, no targets) is the last
// candidate, so the optimizer can fall back to base greedy when pruning
// cannot pay off.
//
// visit receives each candidate in order with its estimated cost: source
// utility scans, target bound computations, and the expected cost of
// scanning unpruned groups. targets is only valid during the call.
func (pl *planner) walk(maxPrefix int, visit func(prefix int, targets []int, cost float64)) {
	g := pl.g
	srcCost := 0.0
	for prefix := 1; prefix <= min(maxPrefix, g); prefix++ {
		s, rest := pl.byM[prefix-1], pl.byM[prefix:]
		pl.addSource(s, rest)
		srcCost += pl.cu[s]
		if prefix == g {
			visit(prefix, nil, srcCost)
			return
		}
		for _, x := range rest {
			pl.inLeft[x] = true
			pl.surv[x] = 1
		}
		for _, t := range rest {
			pl.cover[t] = 0
			for _, x := range rest {
				if pl.gen[t*g+x] {
					pl.cover[t]++
				}
			}
		}
		source := pl.byM[:prefix]
		targets := pl.targets[:0]
		cost := srcCost
		for left := len(rest); left > 0; {
			t := pl.nextTarget(rest)
			targets = append(targets, t)
			cost += pl.cd[t]
			for _, x := range rest {
				if !pl.gen[t*g+x] {
					continue
				}
				for _, si := range source {
					pl.surv[x] *= pl.q[si*g+t]
				}
				if pl.inLeft[x] {
					pl.inLeft[x] = false
					left--
					for _, y := range rest {
						if pl.gen[y*g+x] {
							pl.cover[y]--
						}
					}
				}
			}
			total := cost
			for x := 0; x < g; x++ {
				if !pl.inSource[x] {
					total += pl.surv[x] * pl.cu[x]
				}
			}
			visit(prefix, targets, total)
		}
		pl.targets = targets
	}
}

// OptPrune selects the minimum-cost pruning plan among Algorithm 4's
// candidates (the OPT_PRUNE function of Algorithm 3); the first of
// equally cheap candidates wins. This is the G-O strategy of the paper's
// experiments.
func OptPrune(e *Evaluator, opts Options) Plan {
	pl := e.planner(opts)
	bestPrefix, bestCost := 0, 0.0
	var bestTargets []int
	pl.walk(pl.g, func(prefix int, targets []int, cost float64) {
		if bestPrefix == 0 || cost < bestCost {
			bestPrefix, bestCost = prefix, cost
			bestTargets = slices.Clone(targets)
		}
	})
	if bestPrefix == 0 {
		return Plan{}
	}
	return Plan{Source: slices.Clone(pl.byM[:bestPrefix]), Targets: bestTargets}
}

// NaivePlan is the G-P strategy: the smallest group (by fact count) is
// the only pruning source and every remaining group is a pruning target,
// in the order Algorithm 4 considers them. No cost-based selection
// happens, which the paper shows can even increase overheads.
func NaivePlan(e *Evaluator, opts Options) Plan {
	pl := e.planner(opts)
	if pl.g == 0 {
		return Plan{}
	}
	var all []int
	pl.walk(1, func(_ int, targets []int, _ float64) { all = targets })
	return Plan{Source: []int{pl.byM[0]}, Targets: slices.Clone(all)}
}
