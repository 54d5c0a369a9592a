package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request
// or problem share Req; Parent is 0 for a root.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory for the length of a run; Dump writes
// them out once the run is over. Untraced runs install no seams and
// have no Recorder.
type Recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
	// cur maps a goroutine to the innermost open span on it, so layers
	// that receive no context (Backend.Answer, StoreView.Match) can
	// attach their spans to the request the goroutine is serving.
	cur sync.Map // goroutine id -> frame
}

type frame struct{ span, req int64 }

// NewRecorder starts a recorder whose timestamps count from now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Now is the recorder's clock.
func (r *Recorder) Now() int64 { return int64(time.Since(r.epoch)) }

// NewID reserves a span ID, for parents whose children end first.
func (r *Recorder) NewID() int64 { return r.ids.Add(1) }

// Put stores a finished span, assigning an ID when it has none, and
// returns the ID.
func (r *Recorder) Put(s Span) int64 {
	if s.ID == 0 {
		s.ID = r.NewID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// openSpan is a span entered on one goroutine and not yet ended.
type openSpan struct {
	r    *Recorder
	g    int64
	prev any
	had  bool
	id   int64
	span Span
}

// enter opens a span named name on the calling goroutine, under
// whatever span the goroutine has open (or under parent/req when it
// has none). end closes it on the same goroutine.
func (r *Recorder) enter(name string, parent, req int64) *openSpan {
	o := &openSpan{r: r, g: goid()}
	o.prev, o.had = r.cur.Load(o.g)
	if o.had {
		f := o.prev.(frame)
		parent, req = f.span, f.req
	}
	o.id = r.NewID()
	r.cur.Store(o.g, frame{span: o.id, req: req})
	o.span = Span{ID: o.id, Parent: parent, Name: name, Req: req, Start: r.Now()}
	return o
}

func (o *openSpan) end() {
	o.span.End = o.r.Now()
	if o.had {
		o.r.cur.Store(o.g, o.prev)
	} else {
		o.r.cur.Delete(o.g)
	}
	o.r.Put(o.span)
}

// Dump writes the spans as JSON lines.
func (r *Recorder) Dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid parses the calling goroutine's ID from its stack header
// ("goroutine 123 [running]:"). It costs about a microsecond and is
// only called on traced runs.
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Every span is first clipped
// to its parent's (clipped) interval, so a replay-timed child that runs
// longer than the call it stands in for cannot count twice; siblings
// are expected not to overlap.
func SelfTimes(spans []Span) map[int64]int64 {
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	clipped := make(map[int64]Span, len(spans))
	var clip func(s Span) Span
	clip = func(s Span) Span {
		if c, ok := clipped[s.ID]; ok {
			return c
		}
		c := s
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			pc := clip(p)
			c.Start, c.End = max(s.Start, pc.Start), min(s.End, pc.End)
			c.End = max(c.End, c.Start)
		}
		clipped[s.ID] = c
		return c
	}
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], clip(s))
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		c := clip(s)
		self[s.ID] = c.Dur() - covered(c, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals within p.
func covered(p Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// Attribution sums self time per layer under a set of root spans and
// reports the share of the roots' time no layer covers.
type Attribution struct {
	RootNS  int64            // Σ root durations
	LayerNS map[string]int64 // Σ self time per layer name under the roots
}

// Unattributed is the share of root time no layer's self time covers.
func (a Attribution) Unattributed() float64 {
	if a.RootNS <= 0 {
		return 0
	}
	var sum int64
	for _, v := range a.LayerNS {
		sum += v
	}
	u := 1 - float64(sum)/float64(a.RootNS)
	return max(u, 0)
}

// Attribute folds the self times of every descendant of the spans named
// root into per-layer sums, leaving out the spans named in residual,
// whose self time stays unattributed.
func Attribute(spans []Span, self map[int64]int64, root string, residual ...string) Attribution {
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	a := Attribution{LayerNS: map[string]int64{}}
	// under memoizes whether a span descends from a root span.
	under := map[int64]bool{}
	var descends func(id int64) bool
	descends = func(id int64) bool {
		if v, ok := under[id]; ok {
			return v
		}
		s, ok := byID[id]
		v := ok && (s.Name == root || (s.Parent != 0 && descends(s.Parent)))
		under[id] = v
		return v
	}
	for _, s := range spans {
		switch {
		case s.Name == root:
			a.RootNS += s.Dur()
		case slices.Contains(residual, s.Name):
		case s.Parent != 0 && descends(s.Parent):
			a.LayerNS[s.Name] += self[s.ID]
		}
	}
	return a
}

// durations collects the durations of the spans named name.
func durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur()))
		}
	}
	return out
}

// selfDurations collects the self times of the spans named name.
func selfDurations(spans []Span, self map[int64]int64, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID]))
		}
	}
	return out
}
