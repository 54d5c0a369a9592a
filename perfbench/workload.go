package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"cicero/internal/dataset"
	"cicero/internal/delta"
	"cicero/internal/engine"
	"cicero/internal/load"
	"cicero/internal/relation"
	"cicero/internal/voice"
)

// workload is one set of inputs the benchmark runs. Every run goes
// through the same phases — build the store, serve it over loopback
// HTTP, hold dialogues, publish deltas — and a workload decides which
// phase gets the measured window and what traffic the server sees.
type workload struct {
	name  string
	data  string           // dataset.ByName key
	prior engine.PriorMode // "" keeps the default config's prior
	// buildShare is the share of the run spent on back-to-back batch
	// builds, when that is more than the minimum every run builds.
	buildShare float64
	// openShare and closedShare split the run between open-loop and
	// closed-loop serving.
	openShare, closedShare float64
	rate                   float64 // open-loop offered rate, requests/s
	longtail               bool    // long-tail one-shots plus dialogues, else the hot mix
	// churnEvery publishes a delta of churnOps target updates on this
	// interval during the open loop; 0 publishes only in the probe.
	churnEvery float64 // seconds
	churnOps   int
}

// Open-loop offered rates: a quarter of the capacity_rps the benchmark
// measured for each traffic when it was introduced (hot mix 21.5k/s,
// long tail 10.4k/s, two vCPUs; see README.md). A quarter keeps
// queueing small, so the latency is mostly service time, and leaves
// headroom for the client, which shares the cores with the server.
const (
	hotRate      = 5400
	longtailRate = 2600
)

var workloads = []workload{
	{name: "build", data: "stackoverflow", buildShare: 0.6, openShare: 0.15, closedShare: 0.1, rate: hotRate},
	{name: "ask-hot", data: "flights", openShare: 0.6, closedShare: 0.3, rate: hotRate},
	{name: "ask-longtail", data: "housing", openShare: 0.6, closedShare: 0.3, rate: longtailRate, longtail: true},
	{name: "churn", data: "flights", prior: engine.PriorZero, openShare: 0.6, closedShare: 0.3, rate: hotRate,
		churnEvery: 0.25, churnOps: 12},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// config is the pre-processing configuration of a workload: the
// paper's default (query length 2, G-O), with the prior overridden for
// the freshness setting.
func (w workload) config(rel *relation.Relation) engine.Config {
	cfg := engine.DefaultConfig(rel)
	if w.prior != "" {
		cfg.Prior = w.prior
	}
	return cfg
}

func (w workload) relation(seed int64) *relation.Relation { return dataset.ByName(w.data, seed) }

// item is one request of a generated stream.
type item struct {
	text     string
	session  string // non-empty for dialogue turns
	dialogue int    // dialogue index, -1 for one-shots
	followUp bool
}

// stream generates n requests for the workload from seed. The hot mix
// is load.Generate's production-log mix; the long tail interleaves
// stateless long-tail one-shots with dialogue sessions.
func (w workload) stream(rel *relation.Relation, n int, seed int64) []item {
	phrases := voice.SpokenTargetPhrases(voice.DefaultSamples(w.data))
	if !w.longtail {
		texts := load.Generate(rel, load.Options{Requests: n, Distinct: 64, Zipf: 1.3,
			Seed: seed, Mix: load.DefaultMix, TargetPhrases: phrases})
		out := make([]item, len(texts))
		for i, t := range texts {
			out[i] = item{text: t, dialogue: -1}
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	// About a fifth of the requests are dialogue turns, a share no
	// measurement backs. Dialogues are shaped as BENCH_dialog.json's
	// were (up to four turns, 64 distinct openings), about three turns
	// each.
	dialogues := load.GenerateDialogues(rel, dialogOptions(max(1, n/15), seed, phrases))
	gen := newLongtail(rel, phrases, rng)
	out := make([]item, 0, n)
	next := make([]int, len(dialogues)) // next turn per dialogue
	open := 0                           // dialogues started so far
	for len(out) < n {
		if rng.Intn(5) == 0 && len(dialogues) > 0 {
			// Continue a random started dialogue, or start the next one.
			d := open
			if open > 0 && (open == len(dialogues) || rng.Intn(2) == 0) {
				d = rng.Intn(open)
			}
			if d == open {
				open++
			}
			if t := next[d]; t < len(dialogues[d].Turns) {
				next[d]++
				out = append(out, item{text: dialogues[d].Turns[t].Text, session: dialogues[d].Session,
					dialogue: d, followUp: dialogues[d].Turns[t].FollowUp})
				continue
			}
		}
		out = append(out, item{text: gen.next(), dialogue: -1})
	}
	return out
}

// dialogueStream is the probe's dialogue traffic: whole dialogues,
// turns in order.
func (w workload) dialogueStream(rel *relation.Relation, dialogues int, seed int64) []item {
	phrases := voice.SpokenTargetPhrases(voice.DefaultSamples(w.data))
	var out []item
	for d, dl := range load.GenerateDialogues(rel, dialogOptions(dialogues, seed, phrases)) {
		for _, t := range dl.Turns {
			out = append(out, item{text: t.Text, session: dl.Session, dialogue: d, followUp: t.FollowUp})
		}
	}
	return out
}

// dialogOptions shapes dialogues as cmd/serve -dialog does by default,
// which made BENCH_dialog.json.
func dialogOptions(n int, seed int64, phrases map[string][]string) load.DialogOptions {
	return load.DialogOptions{Dialogues: n, Turns: 4, Distinct: 64, Zipf: 1.3, Seed: seed, TargetPhrases: phrases}
}

// longtail draws stateless one-shots uniformly from a keyspace far
// larger than the answer cache, weighted toward the shapes the server
// computes at run time rather than looks up.
type longtail struct {
	rel     *relation.Relation
	rng     *rand.Rand
	targets []string            // target columns
	phrases map[string][]string // spoken names per target
	dims    []string            // dimension columns
	time    string              // time dimension ("" when none)
}

func newLongtail(rel *relation.Relation, phrases map[string][]string, rng *rand.Rand) *longtail {
	lt := &longtail{rel: rel, rng: rng, phrases: phrases,
		targets: rel.Schema().Targets, dims: rel.Schema().Dimensions}
	for _, d := range lt.dims {
		if d == "month" {
			lt.time = d
		}
	}
	return lt
}

func (lt *longtail) pick(xs []string) string { return xs[lt.rng.Intn(len(xs))] }

func (lt *longtail) target() (col, spoken string) {
	col = lt.pick(lt.targets)
	if p := lt.phrases[col]; len(p) > 0 {
		return col, lt.pick(p)
	}
	return col, strings.ReplaceAll(col, "_", " ")
}

func (lt *longtail) value(dim string) string { return lt.pick(lt.rel.DimByName(dim).Values()) }

// otherDim picks a dimension other than dim.
func (lt *longtail) otherDim(dim string) string {
	for {
		if d := lt.pick(lt.dims); d != dim {
			return d
		}
	}
}

// twoDigits rounds v to two significant digits, as people say numbers.
func twoDigits(v float64) float64 {
	if v <= 0 {
		return 0
	}
	mag := math.Pow(10, math.Floor(math.Log10(v))-1)
	return math.Round(v/mag) * mag
}

func plural(dim string) string {
	dim = strings.ReplaceAll(dim, "_", " ")
	switch {
	case strings.HasSuffix(dim, "s"):
		return dim
	case strings.HasSuffix(dim, "y"):
		return dim[:len(dim)-1] + "ies"
	}
	return dim + "s"
}

var (
	ltCounts = []string{"two", "three", "four", "five", "2", "3", "4", "6"}
	ltUpDown = []string{"highest", "lowest", "most", "fewest", "largest", "smallest"}
	ltBounds = []string{"over", "above", "of at least"}
)

// Shapes of the long tail's one-shots.
const (
	ltExtremum = iota
	ltTopK
	ltTrend
	ltConstrained
	ltComparison
	ltSummary
)

// ltWeights weighs the long tail's shapes. Extremum and comparison keep
// load.DefaultMix's proportion, which mirrors the deployment logs.
// Top-k, trend and constrained queries postdate those logs, so each
// gets extremum's weight, and summaries, which ask-hot already covers,
// get comparison's: choices no measurement backs.
var ltWeights = [...]int{
	ltExtremum:    load.DefaultMix.Extremum,
	ltTopK:        load.DefaultMix.Extremum,
	ltTrend:       load.DefaultMix.Extremum,
	ltConstrained: load.DefaultMix.Extremum,
	ltComparison:  load.DefaultMix.Comparison,
	ltSummary:     load.DefaultMix.Comparison,
}

// shape draws a shape by weight; trends need a time dimension.
func (lt *longtail) shape() int {
	total := 0
	for k, w := range ltWeights {
		if k != ltTrend || lt.time != "" {
			total += w
		}
	}
	x := lt.rng.Intn(total)
	for k, w := range ltWeights {
		if k == ltTrend && lt.time == "" {
			continue
		}
		if x < w {
			return k
		}
		x -= w
	}
	panic("unreachable")
}

// next returns one long-tail utterance.
func (lt *longtail) next() string {
	col, target := lt.target()
	dim := lt.pick(lt.dims)
	switch lt.shape() {
	case ltExtremum: // within a restriction
		return fmt.Sprintf("which %s has the %s %s in %s", strings.ReplaceAll(dim, "_", " "),
			lt.pick(ltUpDown), target, lt.value(lt.otherDim(dim)))
	case ltTopK: // optionally restricted
		text := fmt.Sprintf("the %s %s with the %s %s", lt.pick(ltCounts), plural(dim), lt.pick(ltUpDown), target)
		if lt.rng.Intn(4) != 0 {
			text += " in " + lt.value(lt.otherDim(dim))
		}
		return text
	case ltTrend: // over a window
		periods := lt.rel.DimByName(lt.time).Values()
		i, j := lt.rng.Intn(len(periods)), lt.rng.Intn(len(periods))
		if i > j {
			i, j = j, i
		}
		if lt.rng.Intn(3) == 0 || i == j {
			return fmt.Sprintf("how did %s change since %s", target, periods[i])
		}
		return fmt.Sprintf("%s between %s and %s", target, periods[i], periods[j])
	case ltConstrained: // aggregate over an entity dimension
		mean := lt.rel.FullView().Stats(lt.rel.Schema().TargetIndex(col)).Mean()
		return fmt.Sprintf("%s with %s %s %s", plural(dim), target, lt.pick(ltBounds),
			engine.SpokenNumber(twoDigits(mean*(0.3+0.8*lt.rng.Float64()))))
	case ltComparison: // of two values of one dimension
		a, b := lt.value(dim), lt.value(dim)
		for b == a {
			b = lt.value(dim)
		}
		text := fmt.Sprintf("compare %s between %s and %s", target, a, b)
		if lt.rng.Intn(2) == 0 {
			text += " for " + lt.value(lt.otherDim(dim))
		}
		return text
	default: // summary over two predicates
		d2 := lt.otherDim(dim)
		return fmt.Sprintf("%s in %s for %s", target, lt.value(dim), lt.value(d2))
	}
}

// churnBatch is the next delta of the churn schedule: ops target
// updates clustered on related rows (delta.Synthesize).
func churnBatch(rel *relation.Relation, ops int, seed int64, round int) delta.Batch {
	return delta.Synthesize(rel, ops, seed*7919+int64(round)*101)
}

// moveBatch is the probe's delta: ops rows re-categorized to another
// existing value of one dimension, targets untouched. Moves keep every
// target mean bit-identical (the rows and their order do not change)
// and every dictionary a prefix of itself (rows are picked after the
// first appearance of both values), so even a global-mean store patches
// only the subsets the moved rows leave and enter.
func moveBatch(rel *relation.Relation, ops int, seed int64, round int) delta.Batch {
	rng := rand.New(rand.NewSource(seed*7919 + int64(round)*103 + 1))
	first := make([][]int, rel.NumDims()) // first row of each dictionary code
	for d := range first {
		col := rel.Dim(d)
		first[d] = make([]int, col.Cardinality())
		for i := range first[d] {
			first[d][i] = -1
		}
		for row := 0; row < rel.NumRows(); row++ {
			if c := col.CodeAt(row); first[d][c] < 0 {
				first[d][c] = row
			}
		}
	}
	b := delta.Batch{Dataset: rel.Name()}
	used := map[int]bool{}
	for len(b.Ops) < ops {
		row := rel.NumRows()/2 + rng.Intn(rel.NumRows()/2)
		d := rng.Intn(rel.NumDims())
		col := rel.Dim(d)
		to := int32(rng.Intn(col.Cardinality()))
		from := col.CodeAt(row)
		if used[row] || to == from || first[d][from] >= row || first[d][to] >= row {
			continue
		}
		used[row] = true
		dims := make([]string, rel.NumDims())
		for i := range dims {
			c := rel.Dim(i)
			dims[i] = c.Value(c.CodeAt(row))
		}
		dims[d] = col.Value(to)
		b.Ops = append(b.Ops, delta.Op{Kind: delta.Update, Row: row, Dims: dims})
	}
	return b
}
