package main

import (
	"net/http"
	"strconv"
	"sync"

	"cicero/internal/engine"
	"cicero/internal/serve"
)

// The timing seams of the online path. Each wraps a public interface of
// one layer and records a span around the call; none changes behaviour.

// answerCall is what the classification replay needs to know about one
// backend call: the span it ran under and the request text.
type answerCall struct {
	span int64
	text string
}

// tracedBackend is the httpserve.Backend the traced server fronts: it
// times serve.Answerer calls and forwards StoreGen and AnswerContext so
// cache generation tracking and dialogue sessions behave exactly as on
// the bare Answerer.
type tracedBackend struct {
	a   *serve.Answerer
	rec *Recorder

	mu    sync.Mutex
	calls []answerCall
}

func (b *tracedBackend) Answer(text string) serve.Answer {
	sp := b.rec.enter("serve.answer", 0, 0)
	ans := b.a.Answer(text)
	sp.end()
	b.note(answerCall{span: sp.id, text: text})
	return ans
}

func (b *tracedBackend) AnswerContext(text string, prev *serve.QueryContext) (serve.Answer, *serve.QueryContext) {
	sp := b.rec.enter("serve.answer", 0, 0)
	ans, next := b.a.AnswerContext(text, prev)
	sp.end()
	b.note(answerCall{span: sp.id, text: text})
	return ans, next
}

func (b *tracedBackend) Store() engine.StoreView { return b.a.Store() }

func (b *tracedBackend) StoreGen() (engine.StoreView, uint64) { return b.a.StoreGen() }

func (b *tracedBackend) note(c answerCall) {
	b.mu.Lock()
	b.calls = append(b.calls, c)
	b.mu.Unlock()
}

// takeCalls returns and forgets the calls recorded so far.
func (b *tracedBackend) takeCalls() []answerCall {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.calls
	b.calls = nil
	return out
}

// tracedStore is the engine.StoreView handed to serve.New on traced
// runs; it times the indexed speech lookup.
type tracedStore struct {
	engine.StoreView
	rec *Recorder
}

func (s *tracedStore) Match(q engine.Query) (*engine.StoredSpeech, bool, bool) {
	sp := s.rec.enter("engine.store_match", 0, 0)
	defer sp.end()
	return s.StoreView.Match(q)
}

// traceStore wraps a store view for serving; untraced runs serve the
// view itself.
func traceStore(v engine.StoreView, rec *Recorder) engine.StoreView {
	if rec == nil {
		return v
	}
	return &tracedStore{StoreView: v, rec: rec}
}

// traceHandler times the HTTP tier: the whole handler, under the
// client's round-trip span named in the request headers.
func traceHandler(next http.Handler, rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		sp := rec.enter("httpserve.handler", parent, req)
		defer sp.end()
		next.ServeHTTP(w, r)
	})
}
