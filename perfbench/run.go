package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/serve"
	"cicero/internal/snapshot"
	"cicero/internal/voice"
)

// Sizes of a run's phases.
const (
	setupReps      = 101  // set-ups per run; setup_s is their median
	minBuilds      = 3    // builds per run at least; the rate is their median
	minBuildSecs   = 3    // and at least this many seconds of them
	probeDialogues = 64   // dialogues of the dialogue probe
	probePublishes = 6    // publishes of the publish probe at least
	probeSecs      = 2.5  // and at least this many seconds of them
	probeMoves     = 1    // rows re-categorized per probe publish
	postSwapBurst  = 32   // requests sent after each probe publish
	freshChecks    = 4    // staleness checks after each churn publish
	kernelProbeN   = 40   // seeded calls per kernel on traced runs
	cacheEntries   = 4096 // httpserve's default answer cache size
	warmFor        = 500 * time.Millisecond
	serveRounds    = 3 // open/closed alternations of the serving window
	// lateBoundMS invalidates a run whose generator fell behind its
	// schedule by more than this at the 99th percentile.
	lateBoundMS = 50
)

// runner carries one run's settings and accumulates its results.
type runner struct {
	w       workload
	seed    int64
	secs    float64
	traced  bool
	workers int
	workDir string

	m         metrics
	attempted int
	failed    int
	wrong     []string // failed output checks
}

// fail records n failed operations; check failures also mark the run
// incorrect.
func (r *runner) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

// phaseSeed derives the seed of one generated input from the run seed.
func (r *runner) phaseSeed(phase int64) int64 { return r.seed*1_000_003 + phase }

// served is the serving state a set-up leaves ready.
type served struct {
	rel  *relation.Relation
	view *snapshot.Map
	ex   *voice.Extractor
	srv  *server
}

func (r *runner) run(ctx context.Context) error {
	if err := os.MkdirAll(r.workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "store.snap")

	rel := r.w.relation(r.seed)
	if rel == nil {
		return fmt.Errorf("unknown dataset %q", r.w.data)
	}
	cfg := r.w.config(rel)
	if err := cfg.Validate(rel); err != nil {
		return err
	}
	fp := pipeline.Fingerprint(r.seed, cfg, "")

	var rec *Recorder
	if r.traced {
		rec = NewRecorder()
	}
	heap, err := r.buildPhase(ctx, rel, cfg, snap, fp, rec, dir)
	if err != nil {
		return err
	}
	st, err := r.setupPhase(snap, cfg)
	if err != nil {
		return err
	}
	defer st.view.Close()
	if err := r.servePhase(ctx, st, heap, cfg, rec); err != nil {
		return err
	}
	if !r.traced {
		rss, err := rssPeakMB()
		if err != nil {
			return err
		}
		r.m["rss_peak_mb"] = rss
		return nil
	}
	return rec.Dump(r.spanPath())
}

// buildPhase builds the store: back-to-back builds, at least minBuilds
// and minBuildSecs and, on the build workload, its share of the run; every rebuild
// must equal the first. On the other workloads this is the preparation
// that writes the snapshot they serve, and is excluded from set-up. A
// traced run then replays the batch stage by stage under spans; the
// replay's speeches must equal pipeline.Run's. A traced run
// builds once with pipeline.Run and then replays the batch stage by
// stage under spans; the replay's speeches must equal the build's.
func (r *runner) buildPhase(ctx context.Context, rel *relation.Relation, cfg engine.Config,
	snap, fp string, rec *Recorder, dir string) (*engine.Store, error) {
	var first built
	var rates []float64
	start := time.Now()
	for len(rates) < minBuilds || time.Since(start).Seconds() < max(minBuildSecs, r.w.buildShare*r.secs) {
		b, err := buildOnce(ctx, rel, cfg, r.workers, snap, fp)
		if err != nil {
			return nil, err
		}
		r.attempted += b.stats.Problems
		if first.store == nil {
			first = b
		} else if d := speechDiff(first.store, b.store, true); d > 0 {
			r.fail(d, "rebuild differs from the first build in %d speeches", d)
		}
		rates = append(rates, b.problemsPerSec())
	}
	if !r.traced {
		r.m["build_problems_per_s"] = median(rates)
		r.m["speech_utility"] = first.stats.AvgScaledUtility()
		r.m["snapshot_bytes"] = float64(first.bytes)
		return first.store, nil
	}

	store, st, err := replayBuild(ctx, rel, cfg, r.workers, rec, filepath.Join(dir, "replay.snap"), fp)
	if err != nil {
		return nil, err
	}
	r.attempted += st.problems
	if d := speechDiff(first.store, store, true); d > 0 {
		r.fail(d, "traced build replay differs from pipeline.Run in %d speeches", d)
	}
	unattributed := buildLayers(r.m, rec.Spans(), st)
	if r.w.name == "build" {
		r.m["unattributed_ratio"] = unattributed
	}
	stages := first.stats.Stages
	busy := stages.Evaluate + stages.Solve + stages.Render + stages.Sink
	r.m["pipeline.worker_busy_ratio"] = busy.Seconds() / (first.stats.Elapsed.Seconds() * float64(r.workers))
	r.m["go.alloc_bytes_per_problem"] = float64(first.allocBytes) / float64(first.stats.Problems)
	r.m["go.gc_cycles"] = float64(first.gcCycles)
	r.m["trace.build_overhead_per_s"] = median(rates) - float64(st.problems)/st.wall.Seconds()
	return first.store, nil
}

// setupPhase times the set-up from nothing to ready, setupReps times,
// and keeps the last set-up for serving. Ready-to-serve is: generate
// the relation, map the snapshot, build the extractor, start the HTTP
// tier on a listener. For the build workload ready-to-build is the
// relation and its validated configuration; its serving probe is set
// up untimed.
func (r *runner) setupPhase(snap string, cfg engine.Config) (served, error) {
	var times, maps []float64
	var st served
	for i := 0; i < setupReps; i++ {
		if st.srv != nil {
			if err := st.srv.close(); err != nil {
				return st, err
			}
			st.view.Close()
		}
		t0 := time.Now()
		st.rel = r.w.relation(r.seed)
		c := cfg
		if err := c.Validate(st.rel); err != nil {
			return st, err
		}
		ready := time.Since(t0)
		t1 := time.Now()
		view, err := snapshot.MapFile(snap, st.rel)
		if err != nil {
			return st, fmt.Errorf("setup: %w", err)
		}
		maps = append(maps, float64(time.Since(t1))/1e6)
		st.view = view
		st.ex = voice.NewExtractor(st.rel, voice.DefaultSamples(r.w.data), cfg.MaxQueryLen)
		st.srv, err = listen(serve.New(st.rel, st.view, st.ex, serve.Options{}), nil)
		if err != nil {
			return st, err
		}
		if r.w.buildShare == 0 {
			ready = time.Since(t0)
		}
		times = append(times, ready.Seconds())
	}
	if r.traced {
		r.m["snapshot.map_ms"] = median(maps)
	} else {
		r.m["setup_s"] = median(times)
	}
	return st, nil
}

// servePhase serves the mapped snapshot. An untraced run measures
// open-loop latency at the workload's rate (with the churn schedule
// beside it on churn), then closed-loop capacity, then runs the probes:
// dialogues (unless the traffic held them) and publishes (unless churn
// did). A traced run first measures an untraced open-loop baseline on
// the set-up server, then repeats the open loop and the probes on a
// server wired through the timing seams.
func (r *runner) servePhase(ctx context.Context, st served, heap *engine.Store, cfg engine.Config, rec *Recorder) error {
	if !r.traced {
		s := r.newServingRun(st.srv, newGenerations(st.rel, heap, st.view, st.ex, cfg), nil)
		defer s.c.close()
		items, samples, perSec, err := r.serveWindows(ctx, s, st, r.w.openShare, r.w.closedShare, r.phaseSeed(1), "open")
		if err != nil {
			return err
		}
		r.m["answer_p50_ms"] = latencies(samples, 0.5)[0]
		if late := lateP99(samples); late > lateBoundMS {
			r.fail(1, "generator ran %.1fms late at p99 (bound %dms): the run is invalid", late, lateBoundMS)
		}
		r.m["capacity_rps"] = median(perSec)
		if err := r.probes(ctx, s, st, items, cfg); err != nil {
			return err
		}
		r.m["answer_ok_ratio"] = 1 - ratio(float64(s.answerFails), float64(s.answers))
		r.m["followup_resolved_ratio"] = ratio(float64(s.resolved), float64(s.followUps))
		r.m["publish_s"] = median(s.pub.publishes)
		r.attempted += s.answers + len(s.pub.publishes)
		return st.srv.close()
	}

	// Untraced baseline for the tracing overhead.
	base := r.newServingRun(st.srv, newGenerations(st.rel, heap, st.view, st.ex, cfg), nil)
	a0, _ := goStats()
	_, baseline, _, err := r.serveWindows(ctx, base, st, r.w.openShare/2, 0, r.phaseSeed(1), "baseline")
	if err != nil {
		return err
	}
	a1, _ := goStats()
	base.c.close()
	r.attempted += base.answers + len(base.pub.publishes)
	r.m["go.alloc_bytes_per_request"] = float64(a1-a0) / float64(len(baseline))
	r.m["load.answer_p99_ms"] = latencies(baseline, 0.99)[0]
	if err := st.srv.close(); err != nil {
		return err
	}

	view := traceStore(st.view, rec)
	srv, err := listen(serve.New(st.rel, view, st.ex, serve.Options{}), rec)
	if err != nil {
		return err
	}
	s := r.newServingRun(srv, newGenerations(st.rel, heap, view, st.ex, cfg), rec)
	defer s.c.close()
	before := srv.counts()
	items, samples, _, err := r.serveWindows(ctx, s, st, r.w.openShare, 0, r.phaseSeed(2), "traced")
	if err != nil {
		return err
	}
	window := srv.counts().sub(before)
	if err := r.probes(ctx, s, st, items, cfg); err != nil {
		return err
	}
	r.attempted += s.answers + len(s.pub.publishes)
	replayClassify(rec, srv.backend, st.ex)

	r.m["trace.answer_p50_overhead_ms"] = latencies(samples, 0.5)[0] - latencies(baseline, 0.5)[0]
	r.m["load.late_p99_ms"] = lateP99(samples)
	r.m["httpserve.cache_hit_ratio"] = window.hitRatio()
	r.m["httpserve.shared_ratio"] = ratio(window.shared, float64(len(samples)))
	r.m["httpserve.shed_ratio"] = ratio(window.shed, float64(len(samples)))
	r.m["httpserve.post_swap_hit_ratio"] = median(s.postSwap)
	r.m["delta.dirty_ratio"] = median(s.pub.dirty)
	onlineLayers(r.m, rec.Spans(), r.w.name)
	for name, ds := range kernelTimes(st.rel, r.phaseSeed(6)) {
		r.m[name+"_us"] = median(ds)
	}
	return srv.close()
}

// serveWindows warms the server for warmFor, closed-loop, then
// alternates serveRounds open-loop stretches at the workload's rate
// (openShare of the run in all) with closed-loop stretches (closedShare
// in all), so each metric samples the whole run rather than one part
// of it: on a shared host the latency drifts over seconds. It checks
// every answer and returns the open loop's requests and samples and the
// closed loop's per-second completions. The hot mix warms with the
// loop's own requests, since its steady state is a warm cache; the long
// tail with other long-tail requests, since its steady state is a cache
// that has seen none of what comes next. The closed loop runs a fresh
// stream twice the cache's size, cycled: the long tail misses the cache
// there too, the hot mix stays hot.
func (r *runner) serveWindows(ctx context.Context, s *servingRun, st served, openShare, closedShare float64,
	seed int64, prefix string) ([]item, []sample, []float64, error) {
	items := r.w.stream(st.rel, max(serveRounds, int(r.w.rate*openShare*r.secs)), seed)
	s.gens.expect(items)
	warm := items
	if r.w.longtail {
		warm = r.w.stream(st.rel, 2*cacheEntries, r.phaseSeed(8))
	}
	s.closed(ctx, warm, warmFor)
	closedFor := time.Duration(closedShare * r.secs / serveRounds * float64(time.Second))
	var more []item
	if closedFor > 0 {
		more = r.w.stream(st.rel, 2*cacheEntries, r.phaseSeed(7))
	}
	var samples []sample
	var perSec []float64
	for k := 0; k < serveRounds; k++ {
		got, err := s.open(ctx, items[k*len(items)/serveRounds:(k+1)*len(items)/serveRounds], prefix, r.w.churnEvery > 0)
		if err != nil {
			return nil, nil, nil, err
		}
		samples = append(samples, got...)
		if closedFor > 0 {
			perSec = append(perSec, s.closed(ctx, more, closedFor)...)
		}
	}
	s.check(items, samples, prefix)
	return items, samples, perSec, nil
}

// probes runs what the workload's measured window did not exercise, so
// every run measures every layer: dialogues, publishes and, on churn,
// the check that the last patched store equals a from-scratch build.
func (r *runner) probes(ctx context.Context, s *servingRun, st served, items []item, cfg engine.Config) error {
	if !r.w.longtail {
		if err := s.dialogueProbe(ctx, st.rel); err != nil {
			return err
		}
	}
	if r.w.churnEvery > 0 {
		return s.finalCheck(ctx, cfg)
	}
	return s.publishProbe(ctx, items)
}

// kernelTimes times kernelProbeN seeded calls of every run-time kernel
// over rel, in microseconds per call.
func kernelTimes(rel *relation.Relation, seed int64) map[string][]float64 {
	out := map[string][]float64{}
	for _, k := range kernelProbes(rel, kernelProbeN, seed) {
		out[k.name] = append(out[k.name], float64(k.timed())/1e3)
	}
	return out
}

// onlineLayers derives the online per-layer metrics from a traced run's
// spans, and the share of the requests' end-to-end time (due time to
// answer) no layer's own span covers. The build workload reconciles its
// build replay instead (buildLayers); publishes are left out, being two
// back-to-back calls (delta.Apply, then the swap) with nothing between
// them to miss.
func onlineLayers(m metrics, spans []Span, workload string) {
	self := SelfTimes(spans)
	var reqs []Span // spans of client-sent requests
	for _, s := range spans {
		if s.Req > 0 {
			reqs = append(reqs, s)
		}
	}
	ms := func(xs []float64) float64 { return median(xs) / 1e6 }
	us := func(xs []float64) float64 { return median(xs) / 1e3 }
	m["load.rtt_ms"] = ms(durations(reqs, "load.rtt"))
	m["load.transport_ms"] = ms(selfDurations(reqs, self, "load.rtt"))
	m["httpserve.handler_ms"] = ms(durations(reqs, "httpserve.handler"))
	m["httpserve.self_ms"] = ms(selfDurations(reqs, self, "httpserve.handler"))
	// Serve-level spans also come from warm-up traffic, which is where
	// a hot workload misses its cache.
	m["serve.answer_ms"] = ms(durations(spans, "serve.answer"))
	m["voice.classify_us"] = us(durations(spans, "voice.classify"))
	m["engine.store_match_us"] = us(durations(spans, "engine.store_match"))
	m["delta.plan_ms"] = ms(durations(spans, "delta.plan"))
	m["delta.resolve_ms"] = ms(durations(spans, "delta.resolve"))
	m["delta.apply_self_ms"] = ms(selfDurations(spans, self, "delta.apply"))
	m["httpserve.swap_ms"] = ms(durations(spans, "httpserve.swap"))
	if workload != "build" {
		m["unattributed_ratio"] = Attribute(spans, self, "request", residualSpans...).Unattributed()
	}
}

// residualSpans are the client's spans, whose self times are what is
// left of a request once the layers are taken out rather than a
// measurement of one layer: load.queue is the generator's wait before
// sending, and load.rtt's self time (the round trip less the handler)
// lumps together the client, loopback and net/http's own reading and
// writing. Their time counts as unattributed.
var residualSpans = []string{"load.queue", "load.rtt"}
