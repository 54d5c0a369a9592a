package main

import (
	"context"
	"fmt"
	"os"
	rtmetrics "runtime/metrics"
	"time"

	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/snapshot"
	"cicero/internal/summarize"
)

// goStats reads the runtime's cumulative allocation and GC counters.
func goStats() (allocBytes, gcCycles uint64) {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// built is one pipeline.Run over the workload's relation.
type built struct {
	store      *engine.Store
	stats      pipeline.Stats
	wall       time.Duration
	bytes      int64  // snapshot size
	allocBytes uint64 // bytes allocated during the run
	gcCycles   uint64
}

func (b built) problemsPerSec() float64 { return float64(b.stats.Problems) / b.wall.Seconds() }

// buildOnce runs the paper's batch — every supported query through
// generate → evaluate → solve → render → sink with G-O on workers
// workers — and writes the snapshot artifact, as cmd/summarize does.
func buildOnce(ctx context.Context, rel *relation.Relation, cfg engine.Config, workers int, path, fingerprint string) (built, error) {
	a0, g0 := goStats()
	t0 := time.Now()
	store, st, err := pipeline.Run(ctx, rel, cfg, pipeline.Options{
		Workers: workers, SnapshotPath: path, SnapshotFingerprint: fingerprint})
	wall := time.Since(t0)
	if err != nil {
		return built{}, fmt.Errorf("build: %w", err)
	}
	a1, g1 := goStats()
	fi, err := os.Stat(path)
	if err != nil {
		return built{}, fmt.Errorf("build: %w", err)
	}
	return built{store: store, stats: st, wall: wall, bytes: fi.Size(),
		allocBytes: a1 - a0, gcCycles: g1 - g0}, nil
}

// replayStats are the counters of a traced build replay.
type replayStats struct {
	problems   int
	wall       time.Duration
	candidates int // Σ candidate facts
	groups     int // Σ fact groups
	evaluated  int // Σ facts evaluated by the solver
	pruned     int // Σ groups pruned
	prunable   int // Σ groups × greedy rounds
	replayNS   int64
}

// replayBuild re-runs the batch stage by stage through the layers'
// public functions, with a span around each call: engine.EachProblem
// enumerates, Problem.GenerateFacts generates candidates, the pooled
// evaluator is built, G-O solves, the template renders and the store
// takes the speech; the snapshot write is timed last. The G-O solver
// plans its pruning (summarize.OptPrune) inside the solve, so the plan
// is replayed once more beside it and its time recorded as a child of
// the solve span; that replay is excluded from the worker time the
// layers are reconciled against. The speeches must equal pipeline.Run's.
func replayBuild(ctx context.Context, rel *relation.Relation, cfg engine.Config, workers int,
	rec *Recorder, path, fingerprint string) (*engine.Store, replayStats, error) {
	if err := cfg.Validate(rel); err != nil {
		return nil, replayStats{}, err
	}
	solver, ok := pipeline.LookupSolver(string(engine.AlgGreedyOpt))
	if !ok {
		return nil, replayStats{}, fmt.Errorf("replay: solver %s not registered", engine.AlgGreedyOpt)
	}
	// pipeline.Run divides the cores among its solve workers; G-O is
	// sequential either way.
	opts := summarize.Options{MaxFacts: cfg.MaxFacts, Workers: 1}.WithDefaults()

	type job struct {
		p   engine.Problem
		idx int64
	}
	type done struct {
		sp  *engine.StoredSpeech
		idx int64
		err error
	}
	jobs := make(chan job, workers)
	results := make(chan done, workers)
	start := time.Now()

	var enumErr error
	go func() {
		defer close(jobs)
		var idx int64
		t := rec.Now()
		enumErr = engine.EachProblem(rel, cfg, func(p engine.Problem) error {
			idx++
			rec.Put(Span{Name: "engine.enumerate", Req: idx, Start: t, End: rec.Now()})
			select {
			case jobs <- job{p: p, idx: idx}:
			case <-ctx.Done():
				return engine.ErrStopEnumeration
			}
			t = rec.Now()
			return nil
		})
	}()

	stats := make([]replayStats, workers)
	finished := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(st *replayStats) {
			defer func() { finished <- struct{}{} }()
			root := rec.NewID()
			rootStart := rec.Now()
			for j := range jobs {
				put := func(name string, a, b int64) int64 {
					return rec.Put(Span{Name: name, Parent: root, Req: j.idx, Start: a, End: b})
				}
				t0 := rec.Now()
				facts := j.p.GenerateFacts(cfg.MaxFactDims)
				t1 := rec.Now()
				put("fact.generate", t0, t1)
				if len(facts) == 0 {
					results <- done{idx: j.idx, err: fmt.Errorf("problem %s: no candidate facts", j.p.Query.Key())}
					continue
				}
				e := summarize.AcquireEvaluator(j.p.View, j.p.Target, facts, j.p.Prior)
				t2 := rec.Now()
				put("summarize.evaluator_build", t1, t2)

				summarize.OptPrune(e, opts)
				plan := rec.Now() - t2
				st.replayNS += plan

				t3 := rec.Now()
				sum, err := solver.Solve(ctx, e, pipeline.SolveOptions{Options: opts, Query: j.p.Query, FreeDims: j.p.FreeDims})
				t4 := rec.Now()
				solve := put("summarize.solve", t3, t4)
				rec.Put(Span{Name: "summarize.plan", Parent: solve, Req: j.idx, Start: t3, End: t3 + plan})
				st.candidates += len(facts)
				st.groups += len(e.Groups())
				st.evaluated += sum.Stats.FactsEvaluated
				st.pruned += sum.Stats.GroupsPruned
				st.prunable += len(e.Groups()) * min(cfg.MaxFacts, len(sum.Facts)+1)
				summarize.ReleaseEvaluator(e)
				if err != nil {
					results <- done{idx: j.idx, err: err}
					continue
				}
				text := engine.Template{}.Render(rel, j.p.Query, sum.Facts)
				put("engine.render", t4, rec.Now())
				results <- done{idx: j.idx, sp: &engine.StoredSpeech{Query: j.p.Query, Facts: sum.Facts,
					Utility: sum.Utility, PriorError: sum.PriorError, Text: text}}
				st.problems++
			}
			rec.Put(Span{ID: root, Name: "pipeline.worker", Start: rootStart, End: rec.Now()})
		}(&stats[w])
	}
	go func() {
		for w := 0; w < workers; w++ {
			<-finished
		}
		close(results)
	}()

	store := engine.NewStore()
	var firstErr error
	for d := range results {
		if d.err != nil {
			if firstErr == nil {
				firstErr = d.err
			}
			continue
		}
		t := rec.Now()
		store.Add(d.sp)
		rec.Put(Span{Name: "engine.store_add", Req: d.idx, Start: t, End: rec.Now()})
	}
	var total replayStats
	total.wall = time.Since(start)
	if firstErr == nil {
		firstErr = enumErr
	}
	if firstErr != nil {
		return nil, total, fmt.Errorf("replay: %w", firstErr)
	}
	frozen := store.Freeze()
	t := rec.Now()
	if err := snapshot.WriteFileTagged(path, frozen, rel, fingerprint); err != nil {
		return nil, total, fmt.Errorf("replay: write snapshot: %w", err)
	}
	rec.Put(Span{Name: "snapshot.write", Start: t, End: rec.Now()})
	for _, st := range stats {
		total.problems += st.problems
		total.candidates += st.candidates
		total.groups += st.groups
		total.evaluated += st.evaluated
		total.pruned += st.pruned
		total.prunable += st.prunable
		total.replayNS += st.replayNS
	}
	return frozen, total, nil
}

// buildLayers turns a replay's spans and counters into the offline
// per-layer metrics, and reconciles the layers' self times against the
// workers' time (less the plan replay): the remainder is time workers
// spent waiting on the channels that connect the stages.
func buildLayers(m metrics, spans []Span, st replayStats) (unattributed float64) {
	self := SelfTimes(spans)
	sum := map[string]int64{}
	var workerNS int64
	for _, s := range spans {
		switch s.Name {
		case "pipeline.worker":
			workerNS += s.Dur()
		case "engine.enumerate", "fact.generate", "summarize.evaluator_build", "summarize.plan",
			"summarize.solve", "engine.render", "engine.store_add", "snapshot.write":
			sum[s.Name] += self[s.ID]
		}
	}
	for name, ns := range sum {
		m[name+"_s"] = float64(ns) / 1e9
	}
	n := float64(max(st.problems, 1))
	m["fact.candidates_per_problem"] = float64(st.candidates) / n
	m["summarize.fact_groups_per_problem"] = float64(st.groups) / n
	m["summarize.facts_evaluated"] = float64(st.evaluated) / n
	m["summarize.groups_pruned_ratio"] = ratio(float64(st.pruned), float64(st.prunable))

	busy := int64(0)
	for name, ns := range sum {
		if name != "snapshot.write" {
			busy += ns
		}
	}
	return max(0, 1-ratio(float64(busy), float64(workerNS-st.replayNS)))
}

// speechDiff counts speeches that differ between two stores: by key,
// text, utility, prior error and fact set. Without withFacts, a speech
// of b that carries no facts matches on the rest alone.
func speechDiff(a, b engine.StoreView, withFacts bool) int {
	as, bs := a.Speeches(), b.Speeches()
	diff := max(len(as), len(bs)) - min(len(as), len(bs))
	for i := 0; i < min(len(as), len(bs)); i++ {
		if !sameSpeech(as[i], bs[i], withFacts || len(bs[i].Facts) > 0) {
			diff++
		}
	}
	return diff
}

func sameSpeech(x, y *engine.StoredSpeech, withFacts bool) bool {
	if x.Query.Key() != y.Query.Key() || x.Text != y.Text || x.Utility != y.Utility || x.PriorError != y.PriorError {
		return false
	}
	if !withFacts {
		return true
	}
	if len(x.Facts) != len(y.Facts) {
		return false
	}
	for i := range x.Facts {
		if x.Facts[i].Scope.Key() != y.Facts[i].Scope.Key() || x.Facts[i].Value != y.Facts[i].Value {
			return false
		}
	}
	return true
}
