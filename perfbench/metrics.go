package main

import (
	"math"
	"sort"
)

// metricSpec describes one reported metric, as BENCHMARK.json lists
// it. End-to-end metrics carry the bound by which they may worsen;
// per-layer metrics name the end-to-end metric they should move and the
// workload they should move it on.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: allowed share of worsening
	Moves  string  // per-layer only: end-to-end metric it feeds
	On     string  // per-layer only: workload it feeds it on
}

// endToEnd are the metrics an untraced run reports, on every workload.
// A workload whose measured window does not exercise a metric's path
// measures it in the short probe phase every run ends with.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "build_problems_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "speech_utility", Unit: "ratio", Better: "higher", Bound: 0.05},
	{Name: "snapshot_bytes", Unit: "bytes", Better: "lower", Bound: 0.05},
	{Name: "answer_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "answer_ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "capacity_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "publish_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "followup_resolved_ratio", Unit: "ratio", Better: "higher", Bound: 0.05},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics a traced run reports, on every workload.
var perLayer = []metricSpec{
	// Offline path: generate → evaluate → solve → render → sink.
	{Name: "engine.enumerate_s", Unit: "s", Better: "lower", Moves: "build_problems_per_s", On: "build"},
	{Name: "fact.generate_s", Unit: "s", Better: "lower", Moves: "build_problems_per_s", On: "build"},
	{Name: "fact.candidates_per_problem", Unit: "count", Better: "lower", Moves: "build_problems_per_s", On: "build"},
	{Name: "summarize.evaluator_build_s", Unit: "s", Better: "lower", Moves: "build_problems_per_s", On: "build"},
	{Name: "summarize.fact_groups_per_problem", Unit: "count", Better: "lower", Moves: "build_problems_per_s", On: "build"},
	{Name: "summarize.plan_s", Unit: "s", Better: "lower", Moves: "build_problems_per_s", On: "build"},
	{Name: "summarize.solve_s", Unit: "s", Better: "lower", Moves: "build_problems_per_s", On: "build"},
	{Name: "summarize.facts_evaluated", Unit: "count", Better: "lower", Moves: "build_problems_per_s", On: "build"},
	{Name: "summarize.groups_pruned_ratio", Unit: "ratio", Better: "higher", Moves: "build_problems_per_s", On: "build"},
	{Name: "engine.render_s", Unit: "s", Better: "lower", Moves: "build_problems_per_s", On: "build"},
	{Name: "engine.store_add_s", Unit: "s", Better: "lower", Moves: "build_problems_per_s", On: "build"},
	{Name: "snapshot.write_s", Unit: "s", Better: "lower", Moves: "build_problems_per_s", On: "build"},
	{Name: "pipeline.worker_busy_ratio", Unit: "ratio", Better: "higher", Moves: "build_problems_per_s", On: "build"},
	{Name: "go.alloc_bytes_per_problem", Unit: "bytes", Better: "lower", Moves: "build_problems_per_s", On: "build"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Moves: "rss_peak_mb", On: "build"},
	{Name: "trace.build_overhead_per_s", Unit: "1/s", Better: "lower", Moves: "build_problems_per_s", On: "build"},

	// Online path: HTTP → httpserve → serve → voice → store/kernel.
	{Name: "load.rtt_ms", Unit: "ms", Better: "lower", Moves: "answer_p50_ms", On: "ask-hot"},
	{Name: "load.transport_ms", Unit: "ms", Better: "lower", Moves: "answer_p50_ms", On: "ask-hot"},
	{Name: "load.answer_p99_ms", Unit: "ms", Better: "lower", Moves: "answer_p50_ms", On: "ask-longtail"},
	{Name: "load.late_p99_ms", Unit: "ms", Better: "lower", Moves: "answer_p50_ms", On: "ask-hot"},
	{Name: "httpserve.handler_ms", Unit: "ms", Better: "lower", Moves: "answer_p50_ms", On: "ask-hot"},
	{Name: "httpserve.self_ms", Unit: "ms", Better: "lower", Moves: "capacity_rps", On: "ask-hot"},
	{Name: "httpserve.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "answer_p50_ms", On: "ask-hot"},
	{Name: "httpserve.shared_ratio", Unit: "ratio", Better: "higher", Moves: "answer_p50_ms", On: "ask-hot"},
	{Name: "httpserve.shed_ratio", Unit: "ratio", Better: "lower", Moves: "answer_ok_ratio", On: "churn"},
	{Name: "serve.answer_ms", Unit: "ms", Better: "lower", Moves: "answer_p50_ms", On: "ask-longtail"},
	{Name: "voice.classify_us", Unit: "us", Better: "lower", Moves: "answer_p50_ms", On: "ask-longtail"},
	{Name: "engine.store_match_us", Unit: "us", Better: "lower", Moves: "capacity_rps", On: "ask-longtail"},
	{Name: "engine.extremum_us", Unit: "us", Better: "lower", Moves: "answer_p50_ms", On: "ask-longtail"},
	{Name: "engine.topk_us", Unit: "us", Better: "lower", Moves: "answer_p50_ms", On: "ask-longtail"},
	{Name: "engine.trend_us", Unit: "us", Better: "lower", Moves: "answer_p50_ms", On: "ask-longtail"},
	{Name: "engine.constrained_us", Unit: "us", Better: "lower", Moves: "answer_p50_ms", On: "ask-longtail"},
	{Name: "engine.comparison_us", Unit: "us", Better: "lower", Moves: "capacity_rps", On: "ask-longtail"},
	{Name: "snapshot.map_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: "ask-hot"},
	{Name: "go.alloc_bytes_per_request", Unit: "bytes", Better: "lower", Moves: "capacity_rps", On: "ask-hot"},
	{Name: "trace.answer_p50_overhead_ms", Unit: "ms", Better: "lower", Moves: "answer_p50_ms", On: "ask-hot"},

	// Writes beside reads: delta publish and the swap.
	{Name: "delta.plan_ms", Unit: "ms", Better: "lower", Moves: "publish_s", On: "churn"},
	{Name: "delta.dirty_ratio", Unit: "ratio", Better: "lower", Moves: "publish_s", On: "churn"},
	{Name: "delta.resolve_ms", Unit: "ms", Better: "lower", Moves: "publish_s", On: "churn"},
	{Name: "delta.apply_self_ms", Unit: "ms", Better: "lower", Moves: "publish_s", On: "churn"},
	{Name: "httpserve.swap_ms", Unit: "ms", Better: "lower", Moves: "publish_s", On: "churn"},
	{Name: "httpserve.post_swap_hit_ratio", Unit: "ratio", Better: "higher", Moves: "answer_p50_ms", On: "churn"},

	// Reconciliation: the share of traced end-to-end time no layer covers.
	{Name: "unattributed_ratio", Unit: "ratio", Better: "lower", Moves: "answer_p50_ms", On: "ask-hot"},
}

// metrics holds one run's measured values by name.
type metrics map[string]float64

// median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none); xs is reordered.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
