package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"

	"cicero/internal/delta"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/serve"
	"cicero/internal/voice"
)

func TestStreamsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		rel := w.relation(1)
		a, b := w.stream(rel, 2000, 5), w.stream(rel, 2000, 5)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different request streams", w.name)
		}
		if reflect.DeepEqual(a, w.stream(rel, 2000, 6)) {
			t.Errorf("%s: different seeds gave the same request stream", w.name)
		}
		if d := w.dialogueStream(rel, probeDialogues, 5); !reflect.DeepEqual(d, w.dialogueStream(rel, probeDialogues, 5)) {
			t.Errorf("%s: same seed gave different dialogue probes", w.name)
		}
	}
}

// problemDigest hashes the problem list a workload's build solves: every
// query key with the size of its data subset.
func problemDigest(t *testing.T, w workload, seed int64) uint64 {
	t.Helper()
	rel := w.relation(seed)
	cfg := w.config(rel)
	if err := cfg.Validate(rel); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	err := engine.EachProblem(rel, cfg, func(p engine.Problem) error {
		fmt.Fprintf(h, "%s:%d;", p.Query.Key(), p.View.NumRows())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

func TestProblemListFollowsTheSeed(t *testing.T) {
	for _, w := range workloads {
		if problemDigest(t, w, 3) != problemDigest(t, w, 3) {
			t.Errorf("%s: same seed gave different problem lists", w.name)
		}
		if problemDigest(t, w, 3) == problemDigest(t, w, 4) {
			t.Errorf("%s: different seeds gave the same problem list", w.name)
		}
	}
}

// schedule applies four rounds of deltas drawn by next from seed and
// returns their tags.
func schedule(t *testing.T, rel *relation.Relation, seed int64, next func(*relation.Relation, int64, int) delta.Batch) []string {
	t.Helper()
	tab := delta.FromRelation(rel)
	var tags []string
	for round := 0; round < 4; round++ {
		b := next(tab.Rel(), seed, round)
		if _, err := tab.Apply(b); err != nil {
			t.Fatalf("%s round %d: %v", rel.Name(), round, err)
		}
		tags = append(tags, b.Tag())
	}
	return tags
}

func TestDeltaScheduleFollowsTheSeed(t *testing.T) {
	kinds := map[string]func(*relation.Relation, int64, int) delta.Batch{
		"churn": func(rel *relation.Relation, seed int64, round int) delta.Batch {
			return churnBatch(rel, 12, seed, round)
		},
		"moves": func(rel *relation.Relation, seed int64, round int) delta.Batch {
			return moveBatch(rel, probeMoves, seed, round)
		},
	}
	for _, w := range workloads {
		rel := w.relation(1)
		for name, next := range kinds {
			a := schedule(t, rel, 1, next)
			if !reflect.DeepEqual(a, schedule(t, rel, 1, next)) {
				t.Errorf("%s %s: same seed gave different delta schedules", w.name, name)
			}
			if reflect.DeepEqual(a, schedule(t, rel, 2, next)) {
				t.Errorf("%s %s: different seeds gave the same delta schedule", w.name, name)
			}
		}
	}
}

// TestMovesStayIncremental pins the property the publish probe relies
// on: a re-categorization delta patches a global-mean store without
// degrading to a whole-target or whole-store re-solve.
func TestMovesStayIncremental(t *testing.T) {
	w, _ := lookupWorkload("ask-hot")
	rel := w.relation(1)
	cfg := w.config(rel)
	base, _, err := pipeline.Run(context.Background(), rel, cfg, pipeline.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tab := delta.FromRelation(rel)
	images, err := tab.Apply(moveBatch(rel, probeMoves, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := delta.Apply(context.Background(), base, rel, tab.Rel(), cfg, pipeline.Options{Workers: 2}, images)
	if err != nil {
		t.Fatal(err)
	}
	if res.FullDirty || len(res.FullDirtyTargets) > 0 || res.DirtyProblems*10 > res.TotalProblems {
		t.Errorf("move dirtied %d of %d problems (full %v, targets %v)",
			res.DirtyProblems, res.TotalProblems, res.FullDirty, res.FullDirtyTargets)
	}
}

func TestLongtailIsAnsweredAndMostlyDistinct(t *testing.T) {
	w, _ := lookupWorkload("ask-longtail")
	rel := w.relation(1)
	cfg := w.config(rel)
	store, _, err := pipeline.Run(context.Background(), rel, cfg, pipeline.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ex := voice.NewExtractor(rel, voice.DefaultSamples(w.data), cfg.MaxQueryLen)
	a := serve.New(rel, store, ex, serve.Options{})
	distinct := map[string]bool{}
	shots := oneShots(w.stream(rel, 2*cacheEntries, 9))
	for _, it := range shots {
		if distinct[it.text] {
			continue
		}
		distinct[it.text] = true
		ans := a.Answer(it.text)
		if !ans.Answered {
			t.Errorf("%q was not answered: %s", it.text, ans.Text)
		}
	}
	if len(distinct) <= cacheEntries {
		t.Errorf("%d distinct long-tail texts fit the %d-entry answer cache", len(distinct), cacheEntries)
	}
}

// TestGenerationsDropOldOracles pins the checker's memory bound: only
// the live generation and the one before it keep an oracle, and a
// settled generation still answers every text it was settled on.
func TestGenerationsDropOldOracles(t *testing.T) {
	w, _ := lookupWorkload("ask-longtail")
	rel := w.relation(1)
	cfg := w.config(rel)
	store, _, err := pipeline.Run(context.Background(), rel, cfg, pipeline.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ex := voice.NewExtractor(rel, voice.DefaultSamples(w.data), cfg.MaxQueryLen)
	g := newGenerations(rel, store, store, ex, cfg)
	items := oneShots(w.stream(rel, 50, 3))
	g.expect(items)
	for gen := 1; gen <= 4; gen++ {
		g.add(rel, store, store)
		g.settle()
	}
	for gen, o := range g.oracles {
		if kept := gen >= g.last()-1; kept != (o != nil) {
			t.Errorf("generation %d of %d: oracle kept = %v", gen, g.last(), o != nil)
		}
	}
	want := serve.New(rel, store, ex, serve.Options{}).Answer(items[0].text)
	rep := reply{status: 200, text: want.Text, kind: want.Kind.String()}
	if !g.matches(rep, items[0].text, 0, 0) {
		t.Errorf("settled generation 0 does not answer %q", items[0].text)
	}
	if g.matches(rep, "a text the phase never sends", 0, 0) {
		t.Error("settled generation 0 answered a text it was not settled on")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "load.rtt", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "httpserve.handler", Start: 20, End: 80},
		{ID: 4, Parent: 3, Name: "serve.answer", Start: 30, End: 60},
		{ID: 5, Parent: 4, Name: "voice.classify", Start: 30, End: 40},
		{ID: 6, Parent: 4, Name: "engine.topk", Start: 40, End: 50},
		// A replayed child running past its parent counts only inside it.
		{ID: 7, Parent: 4, Name: "engine.store_match", Start: 55, End: 70},
		// A tree outside the requests.
		{ID: 8, Name: "publish", Start: 200, End: 260},
		{ID: 9, Parent: 8, Name: "delta.apply", Start: 200, End: 250},
	}
	self := SelfTimes(spans)
	want := map[int64]int64{1: 20, 2: 20, 3: 30, 4: 5, 5: 10, 6: 10, 7: 5, 8: 10, 9: 50}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	a := Attribute(spans, self, "request")
	if a.RootNS != 100 {
		t.Errorf("root time = %d, want 100", a.RootNS)
	}
	wantLayers := map[string]int64{"load.rtt": 20, "httpserve.handler": 30, "serve.answer": 5,
		"voice.classify": 10, "engine.topk": 10, "engine.store_match": 5}
	if !reflect.DeepEqual(a.LayerNS, wantLayers) {
		t.Errorf("layers = %v, want %v", a.LayerNS, wantLayers)
	}
	// The root's own 20ns, before and after the round trip, is what no
	// layer covers.
	if got := a.Unattributed(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("unattributed = %v, want 0.2", got)
	}
	// Counting the client's spans as residuals leaves also the 20ns of
	// the round trip outside the handler unattributed.
	if got := Attribute(spans, self, "request", residualSpans...).Unattributed(); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("unattributed with residuals = %v, want 0.4", got)
	}
	// A gap no layer measures, inside the round trip and before the
	// handler, raises it.
	gap := slices.Clone(spans)
	gap[2].Start = 25
	if got := Attribute(gap, SelfTimes(gap), "request", residualSpans...).Unattributed(); math.Abs(got-0.45) > 1e-12 {
		t.Errorf("unattributed with a gap = %v, want 0.45", got)
	}
	if got := (Attribution{}).Unattributed(); got != 0 {
		t.Errorf("empty attribution = %v, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.99); math.Abs(got-4.96) > 1e-12 {
		t.Errorf("p99 = %v, want 4.96", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricSpecs(t *testing.T) {
	e2e := map[string]bool{}
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.Name) || !unitRE.MatchString(s.Unit) {
			t.Errorf("metric %q (unit %q) is not a valid name/unit", s.Name, s.Unit)
		}
		if seen[s.Name] {
			t.Errorf("metric %q is listed twice", s.Name)
		}
		seen[s.Name] = true
		if s.Better != "higher" && s.Better != "lower" {
			t.Errorf("metric %q: better = %q", s.Name, s.Better)
		}
	}
	for _, s := range endToEnd {
		e2e[s.Name] = true
		if s.Bound <= 0 || s.Bound > 0.25 || s.Moves != "" || s.On != "" {
			t.Errorf("end-to-end metric %q: bound %v, moves %q on %q", s.Name, s.Bound, s.Moves, s.On)
		}
	}
	if !e2e["setup_s"] {
		t.Error("setup_s is missing")
	}
	for _, s := range perLayer {
		if _, err := lookupWorkload(s.On); err != nil || !e2e[s.Moves] || s.Bound != 0 {
			t.Errorf("per-layer metric %q must name an end-to-end metric and a workload: moves %q on %q",
				s.Name, s.Moves, s.On)
		}
	}
}

// TestBenchmarkJSON checks that the repository's BENCHMARK.json lists
// exactly what the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads = %v, want %v", names, want)
	}
	strip := func(specs []metricSpec) []metricSpec {
		out := make([]metricSpec, len(specs))
		for i, s := range specs {
			out[i] = metricSpec{Name: s.Name, Unit: s.Unit, Better: s.Better, Bound: s.Bound}
		}
		return out
	}
	if got := strip(doc.EndToEnd); !reflect.DeepEqual(got, strip(endToEnd)) {
		t.Errorf("end_to_end = %+v\nwant %+v", got, strip(endToEnd))
	}
	if got := strip(doc.PerLayer); !reflect.DeepEqual(got, strip(perLayer)) {
		t.Errorf("per_layer = %+v\nwant %+v", got, strip(perLayer))
	}
}
