package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/voice"
)

// servingRun drives one served store through the serving phases and
// keeps their outcomes.
type servingRun struct {
	r    *runner
	srv  *server
	gens *generations
	pub  *publisher
	c    *client
	rec  *Recorder
	reqs atomic.Int64 // request IDs handed out

	answers, answerFails int
	followUps, resolved  int
	postSwap             []float64 // cache hit ratio after each publish
}

func (r *runner) newServingRun(srv *server, gens *generations, rec *Recorder) *servingRun {
	return &servingRun{r: r, srv: srv, gens: gens, rec: rec, c: newClient(srv.url, r.workers),
		pub: &publisher{srv: srv, gens: gens, opts: pipeline.Options{Workers: r.workers}, rec: rec}}
}

func (s *servingRun) gen() uint64 { return s.srv.a.Generation() }

func oneShots(items []item) []item {
	var out []item
	for _, it := range items {
		if it.dialogue < 0 {
			out = append(out, it)
		}
	}
	return out
}

// closed runs a closed loop over the items' one-shots and checks every
// distinct reply against the live generation; it returns the
// completion rate of each rateBin.
func (s *servingRun) closed(ctx context.Context, items []item, d time.Duration) []float64 {
	shots := oneShots(items)
	seen, n, perSec := closedLoop(ctx, s.c, shots, s.r.workers, d)
	s.answers += n
	gen := s.gen()
	for idx, reps := range seen {
		for _, rep := range reps {
			if !s.gens.matches(rep, shots[idx].text, gen, gen) {
				s.answerFails++
				s.r.fail(1, "closed loop: %q answered %q (status %d, %v)", shots[idx].text, rep.text, rep.status, rep.err)
			}
		}
	}
	return perSec
}

// open runs items open-loop at the workload's rate, publishing the
// churn schedule beside it when churn is set. prefix keeps the phase's
// dialogue sessions apart from other phases'.
func (s *servingRun) open(ctx context.Context, items []item, prefix string, churn bool) ([]sample, error) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var pubErr error
	if churn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pubErr = s.churn(ctx, items, stop)
		}()
	}
	base := s.reqs.Add(int64(len(items))) - int64(len(items)) + 1
	samples, err := openLoop(ctx, s.c, items, s.r.w.rate, s.r.workers, prefix, s.rec, base, s.gen)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if pubErr != nil {
		s.r.fail(1, "churn publish: %v", pubErr)
	}
	return samples, nil
}

// check verifies a phase's answers, in order, against the oracles.
func (s *servingRun) check(items []item, samples []sample, prefix string) {
	fails, followUps, resolved := s.gens.verify(items, samples)
	s.answers += len(samples)
	s.answerFails += fails
	s.followUps += followUps
	s.resolved += resolved
	s.r.fail(fails, "%s: %d of %d answers differ from the oracle", prefix, fails, len(samples))
}

// churn publishes the churn schedule on the workload's interval until
// stop, verifying after each publish that the server answers from the
// new generation.
func (s *servingRun) churn(ctx context.Context, items []item, stop <-chan struct{}) error {
	w := s.r.w
	tick := time.NewTicker(time.Duration(w.churnEvery * float64(time.Second)))
	defer tick.Stop()
	shots := oneShots(items)
	mark := s.srv.counts()
	for {
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
		round := len(s.pub.publishes)
		b := churnBatch(s.gens.rel, w.churnOps, s.r.phaseSeed(3), round)
		if err := s.pub.publish(ctx, b); err != nil {
			return err
		}
		s.fresh(ctx, shots[round*freshChecks%len(shots):], freshChecks)
		now := s.srv.counts()
		s.postSwap = append(s.postSwap, now.sub(mark).hitRatio())
		mark = now
	}
}

// fresh sends n one-shots right after a publish; each must be answered
// from the generation just published.
func (s *servingRun) fresh(ctx context.Context, shots []item, n int) {
	gen := s.gen()
	for i := 0; i < n && i < len(shots); i++ {
		rep := send(ctx, s.c, shots[i], "", s.rec, s.reqs.Add(1), 0)
		s.answers++
		if !s.gens.matches(rep, shots[i].text, gen, gen) {
			s.answerFails++
			s.r.fail(1, "stale or wrong answer after publish %d to %q: %q", gen, shots[i].text, rep.text)
		}
	}
}

// dialogueProbe holds the probe's dialogues open-loop at the
// workload's rate, with no publishes beside them.
func (s *servingRun) dialogueProbe(ctx context.Context, rel *relation.Relation) error {
	items := s.r.w.dialogueStream(rel, probeDialogues, s.r.phaseSeed(4))
	samples, err := s.open(ctx, items, "probe", false)
	if err == nil {
		s.check(items, samples, "probe")
	}
	return err
}

// publishProbe publishes small re-categorization deltas, at least
// probePublishes of them and for at least probeSecs, and sends a burst
// of one-shots after each, which must be answered from the new
// generation; the burst's cache hit ratio is the post-swap hit ratio.
func (s *servingRun) publishProbe(ctx context.Context, items []item) error {
	shots := oneShots(items)
	start := time.Now()
	for round := 0; round < probePublishes || time.Since(start).Seconds() < probeSecs; round++ {
		b := moveBatch(s.gens.rel, probeMoves, s.r.phaseSeed(5), round)
		if err := s.pub.publish(ctx, b); err != nil {
			return err
		}
		before := s.srv.counts()
		s.fresh(ctx, shots, postSwapBurst)
		s.postSwap = append(s.postSwap, s.srv.counts().sub(before).hitRatio())
	}
	return nil
}

// finalCheck rebuilds the last generation's relation from scratch; the
// patched store must equal it speech for speech.
func (s *servingRun) finalCheck(ctx context.Context, cfg engine.Config) error {
	last := s.gens.last()
	if last == 0 {
		return nil
	}
	store, _, err := pipeline.Run(ctx, s.gens.rel, cfg, pipeline.Options{Workers: s.r.workers})
	if err != nil {
		return fmt.Errorf("final rebuild: %w", err)
	}
	s.r.attempted++
	// Speeches retained from the mmapped base carry no facts: snapshot.Map
	// does not materialize them (its documented contract), and delta.Apply
	// clones what the view holds. They must agree on everything served.
	if d := speechDiff(store, s.gens.oracles[last].Store(), false); d > 0 {
		s.r.fail(d, "patched store differs from a from-scratch build in %d speeches", d)
	}
	return nil
}

// latencies returns the open-loop latency percentiles in milliseconds;
// a failed request counts as answered at the end of the loop, so it
// misses any latency limit.
func latencies(samples []sample, qs ...float64) []float64 {
	var end int64
	for _, s := range samples {
		end = max(end, s.done)
	}
	lat := make([]float64, len(samples))
	for i, s := range samples {
		l := s.latency()
		if !s.rep.ok() {
			l = end - s.sched
		}
		lat[i] = float64(l) / 1e6
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(lat, q)
	}
	return out
}

func lateP99(samples []sample) float64 {
	late := make([]float64, len(samples))
	for i, s := range samples {
		late[i] = float64(s.lateness()) / 1e6
	}
	return quantile(late, 0.99)
}

// replayClassify times, for every backend call of a traced server, the
// voice.Classify the Answerer ran inside it on the same text, and
// records it as the first child of the call's serve.answer span.
func replayClassify(rec *Recorder, b *tracedBackend, ex *voice.Extractor) {
	starts := map[int64]Span{}
	for _, sp := range rec.Spans() {
		if sp.Name == "serve.answer" {
			starts[sp.ID] = sp
		}
	}
	for _, c := range b.takeCalls() {
		parent := starts[c.span]
		t0 := time.Now()
		voice.Classify(c.text, ex)
		d := int64(time.Since(t0))
		rec.Put(Span{Parent: c.span, Name: "voice.classify", Req: parent.Req, Start: parent.Start, End: parent.Start + d})
	}
}
