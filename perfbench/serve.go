package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"cicero/internal/delta"
	"cicero/internal/engine"
	"cicero/internal/httpserve"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/serve"
	"cicero/internal/voice"
)

// server is one served store: an Answerer behind the HTTP tier on a
// loopback listener. Traced servers wrap the backend, the store view
// and the handler in the timing seams.
type server struct {
	a       *serve.Answerer
	http    *httpserve.Server
	backend *tracedBackend // nil when untraced
	hs      *http.Server
	url     string
	served  chan error
}

// listen starts the HTTP tier over a; rec enables the timing seams.
func listen(a *serve.Answerer, rec *Recorder) (*server, error) {
	s := &server{a: a, served: make(chan error, 1)}
	var b httpserve.Backend = a
	if rec != nil {
		s.backend = &tracedBackend{a: a, rec: rec}
		b = s.backend
	}
	s.http = httpserve.NewWithBackend(b, httpserve.Options{})
	h := s.http.Handler()
	if rec != nil {
		h = traceHandler(h, rec)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its serving goroutine.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// cacheCounts reads the HTTP tier's cumulative cache, dedup and shed
// counters.
type cacheCounts struct{ hits, misses, shared, shed float64 }

func (s *server) counts() cacheCounts {
	st := s.http.Stats()
	return cacheCounts{hits: float64(st.Cache.Hits), misses: float64(st.Cache.Misses),
		shared: float64(st.Deduped), shed: float64(st.Admission.Rejected)}
}

func (c cacheCounts) sub(o cacheCounts) cacheCounts {
	return cacheCounts{c.hits - o.hits, c.misses - o.misses, c.shared - o.shared, c.shed - o.shed}
}

func (c cacheCounts) hitRatio() float64 { return ratio(c.hits, c.hits+c.misses) }

// generations tracks the store generations a server has published,
// each with an oracle: an in-process serve.Answerer over the heap store
// of that generation. Every HTTP answer must equal the oracle's answer
// for a generation live while the request was in flight, which
// cross-checks the cache, the mmap read path, the JSON encoding and,
// under churn, staleness across swaps.
//
// Like the server, it holds on to no more than the live generation and
// the one before it, which requests may still be in flight on: before
// an older oracle is dropped, that generation's answer to every text
// the phase sends is settled into its memo. So the process's peak
// memory does not grow with the number of publishes unless the program
// itself keeps replaced generations alive.
type generations struct {
	ex      *voice.Extractor
	cfg     engine.Config
	rel     *relation.Relation // the live generation's, which the next delta patches
	store   engine.StoreView   // the live generation's served view
	oracles []*serve.Answerer  // by generation; nil once settled
	memo    []map[string]expected
	texts   map[string]bool // what every generation is settled on
}

// expected is an oracle answer as the HTTP tier encodes it.
type expected struct{ text, kind string }

func newGenerations(rel *relation.Relation, heap *engine.Store, served engine.StoreView, ex *voice.Extractor, cfg engine.Config) *generations {
	g := &generations{ex: ex, cfg: cfg, texts: map[string]bool{}}
	g.add(rel, heap, served)
	return g
}

// add registers the next generation: the relation, the heap store the
// oracle answers from and the view the server swaps in.
func (g *generations) add(rel *relation.Relation, heap *engine.Store, served engine.StoreView) {
	g.rel, g.store = rel, served
	g.oracles = append(g.oracles, serve.New(rel, heap, g.ex, serve.Options{}))
	g.memo = append(g.memo, map[string]expected{})
}

func (g *generations) last() int { return len(g.oracles) - 1 }

// expect adds the one-shot texts of items to those every generation
// is settled on before its oracle is dropped.
func (g *generations) expect(items []item) {
	for _, it := range items {
		if it.dialogue < 0 {
			g.texts[it.text] = true
		}
	}
}

// settle drops the oracles of every generation older than the one
// before the live one, once their answers to the expected texts are
// memoized.
func (g *generations) settle() {
	for gen := 0; gen < g.last()-1; gen++ {
		if g.oracles[gen] == nil {
			continue
		}
		for text := range g.texts {
			g.answer(gen, text)
		}
		g.oracles[gen] = nil
	}
}

// answer is the oracle's one-shot answer at generation gen; ok is false
// for a text the generation was not settled on. An answer equal to the
// previous generation's shares its strings.
func (g *generations) answer(gen int, text string) (a expected, ok bool) {
	if a, ok := g.memo[gen][text]; ok {
		return a, true
	}
	if g.oracles[gen] == nil {
		return expected{}, false
	}
	ans := g.oracles[gen].Answer(text)
	a = expected{text: ans.Text, kind: ans.Kind.String()}
	if gen > 0 {
		if prev, ok := g.memo[gen-1][text]; ok && prev == a {
			a = prev
		}
	}
	g.memo[gen][text] = a
	return a, true
}

// matches reports whether rep is the oracle's answer to text at some
// generation in [from, to].
func (g *generations) matches(rep reply, text string, from, to uint64) bool {
	if !rep.ok() {
		return false
	}
	for gen := int(from); gen <= int(to) && gen < len(g.oracles); gen++ {
		if want, ok := g.answer(gen, text); ok && rep.text == want.text && rep.kind == want.kind {
			return true
		}
	}
	return false
}

// verify checks a stream's samples against the oracles and returns the
// number of failures: errors, non-200 replies and wrong answers.
// Dialogue turns are checked by replaying each dialogue, in order,
// through the oracle's AnswerContext; resolved counts the follow-ups
// the server resolved.
func (g *generations) verify(items []item, samples []sample) (failed, followUps, resolved int) {
	ctxs := map[int]*serve.QueryContext{}
	for i, s := range samples {
		it := items[i]
		if it.dialogue < 0 {
			if !g.matches(s.rep, it.text, s.genSent, s.genDone) {
				failed++
			}
			continue
		}
		// Sessions are not cached and no dialogue runs across a publish,
		// so the generation the turn was sent at answers it.
		o := g.oracles[s.genSent]
		if o == nil {
			failed++
			continue
		}
		want, next := o.AnswerContext(it.text, ctxs[it.dialogue])
		ctxs[it.dialogue] = next
		if !s.rep.ok() || s.rep.text != want.Text || s.rep.kind != want.Kind.String() {
			failed++
		}
		if it.followUp {
			followUps++
			if s.rep.ok() && s.rep.answered && s.rep.kind != "followup" {
				resolved++
			}
		}
	}
	return failed, followUps, resolved
}

// publisher applies deltas to a served store and swaps the patched
// generation in, the way an ingestion daemon publishes.
type publisher struct {
	srv  *server
	gens *generations
	opts pipeline.Options
	rec  *Recorder

	publishes []float64 // seconds per publish
	dirty     []float64 // dirty share of the problem space per publish
}

// publish applies one batch: delta.Apply re-solves the dirty problems
// against the current generation, then the Answerer swaps to the
// patched store and relation. The oracle for the new generation is
// registered before the swap, so no client can observe a generation
// the checker does not know.
func (p *publisher) publish(ctx context.Context, b delta.Batch) error {
	rel, base := p.gens.rel, p.gens.store
	tab := delta.FromRelation(rel)
	images, err := tab.Apply(b)
	if err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	next := tab.Rel()
	var root, applyID int64
	if p.rec != nil {
		root, applyID = p.rec.NewID(), p.rec.NewID()
	}
	t0 := time.Now()
	res, err := delta.Apply(ctx, base, rel, next, p.gens.cfg, p.opts, images)
	if err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	applied := time.Since(t0)
	view := traceStore(res.Store, p.rec)
	p.gens.add(next, res.Store, view)
	t1 := time.Now()
	p.srv.a.SwapData(next, view)
	swapped := time.Since(t1)
	p.publishes = append(p.publishes, (applied + swapped).Seconds())
	p.gens.settle()
	p.dirty = append(p.dirty, ratio(float64(res.DirtyProblems), float64(res.TotalProblems)))
	if p.rec != nil {
		// The oracle bookkeeping between apply and swap is left out.
		end := p.rec.Now()
		s1 := end - int64(swapped)
		s0 := s1 - int64(applied)
		p.rec.Put(Span{ID: root, Name: "publish", Start: s0, End: end})
		p.rec.Put(Span{ID: applyID, Parent: root, Name: "delta.apply", Start: s0, End: s1})
		p.rec.Put(Span{Parent: root, Name: "httpserve.swap", Start: s1, End: end})
		if err := p.replay(ctx, rel, next, images, res, applyID, s0); err != nil {
			return err
		}
	}
	return nil
}

// replay times the two stages delta.Apply runs internally — the dirty
// plan (delta.PlanDirty) and the re-solve of each dirty problem
// (pipeline.ProblemSolver.Solve) — by running them again after the
// publish, and records them as children of the apply span.
func (p *publisher) replay(ctx context.Context, base, next *relation.Relation, images []delta.RowImage,
	res *delta.Result, apply, start int64) error {
	cfg := p.gens.cfg
	if err := cfg.Validate(next); err != nil {
		return err
	}
	t0 := time.Now()
	delta.PlanDirty(base, next, cfg, images)
	plan := int64(time.Since(t0))

	solved := make(map[string]bool, len(res.Upserts))
	for _, u := range res.Upserts {
		solved[u.Query.Key()] = true
	}
	ps, err := pipeline.NewProblemSolver(next, cfg, p.opts)
	if err != nil {
		return err
	}
	var resolve int64
	err = engine.EachProblemLazy(next, cfg, func(lp engine.LazyProblem) error {
		if !solved[lp.Query.Key()] {
			return nil
		}
		prob := lp.Materialize()
		t := time.Now()
		_, err := ps.Solve(ctx, prob)
		resolve += int64(time.Since(t))
		return err
	})
	if err != nil {
		return fmt.Errorf("replay resolve: %w", err)
	}
	p.rec.Put(Span{Parent: apply, Name: "delta.plan", Start: start, End: start + plan})
	p.rec.Put(Span{Parent: apply, Name: "delta.resolve", Start: start + plan, End: start + plan + resolve})
	return nil
}
