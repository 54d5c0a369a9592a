package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"cicero/internal/httpserve"
)

// Headers carrying the client's request and span IDs to the server's
// timing middleware on traced runs.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// reply is what the benchmark keeps of one HTTP answer.
type reply struct {
	status   int
	kind     string
	text     string
	answered bool
	err      error
}

func (r reply) ok() bool { return r.err == nil && r.status == http.StatusOK }

// client sends answer requests to one server over loopback HTTP with
// at most workers connections.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string, workers int) *client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConns:        workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, url: url + "/v1/answer"}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// ask sends one request. session prefixes keep dialogue state of
// different phases apart. req/span are forwarded for the traced run.
func (c *client) ask(ctx context.Context, it item, sessionPrefix string, req, span int64) reply {
	body := httpserve.AnswerRequest{Text: it.text}
	if it.session != "" {
		body.Session = sessionPrefix + it.session
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return reply{err: err}
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(buf))
	if err != nil {
		return reply{err: err}
	}
	hr.Header.Set("Content-Type", "application/json")
	if span != 0 {
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hr.Header.Set(hdrSpan, strconv.FormatInt(span, 10))
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{status: resp.StatusCode, err: err}
	}
	out := reply{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		return out
	}
	var ar httpserve.AnswerResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		out.err = fmt.Errorf("decode answer: %w", err)
		return out
	}
	out.kind, out.text, out.answered = ar.Kind, ar.Text, ar.Answered
	return out
}

// sample is one open-loop request: times are nanoseconds since the
// loop's start, sched the time it was due to be sent.
type sample struct {
	sched, sent, done int64
	genSent, genDone  uint64 // store generation when sent and answered
	rep               reply
}

// latency is the request's time from when it was due to when its
// answer arrived, so a stall also counts against the requests it
// delayed.
func (s sample) latency() int64 { return s.done - s.sched }

// lateness is how far behind schedule the generator sent it.
func (s sample) lateness() int64 { return s.sent - s.sched }

// openLoop sends items on a fixed schedule — item i is due at i/rate
// seconds — from workers goroutines. One-shots are dealt round-robin;
// all turns of one dialogue go to one worker, so they stay in order. A
// worker that falls behind sends late rather than skipping, and the
// lateness is recorded. rec, when non-nil, records the request and
// round-trip spans; gen reads the live store generation.
func openLoop(ctx context.Context, c *client, items []item, rate float64, workers int, prefix string,
	rec *Recorder, reqBase int64, gen func() uint64) ([]sample, error) {
	out := make([]sample, len(items))
	lanes := make([][]int, workers)
	for i, it := range items {
		w := i % workers
		if it.dialogue >= 0 {
			w = it.dialogue % workers
		}
		lanes[w] = append(lanes[w], i)
	}
	timers := make([]*timer, workers)
	for w := range timers {
		t, err := newTimer()
		if err != nil {
			return nil, err
		}
		defer t.close()
		timers[w] = t
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w, lane := range lanes {
		wg.Add(1)
		go func(w int, lane []int) {
			defer wg.Done()
			for _, i := range lane {
				due := time.Duration(float64(i) / rate * float64(time.Second))
				if err := timers[w].sleepUntil(start, due); err != nil {
					errs[w] = err
					return
				}
				s := sample{sched: int64(due), genSent: gen()}
				s.sent = int64(time.Since(start))
				s.rep = send(ctx, c, items[i], prefix, rec, reqBase+int64(i), s.sent-s.sched)
				s.done = int64(time.Since(start))
				s.genDone = gen()
				out[i] = s
			}
		}(w, lane)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// timer sleeps with microsecond precision without holding a scheduler
// slot: the Go runtime's own timers wake an idle process about a
// millisecond late (its poller waits in whole milliseconds), which
// would dwarf the sub-millisecond latencies being measured, and a
// blocking nanosleep would hold one of the process's few Ps while it
// sleeps, stalling the server. A timerfd is read through the runtime's
// poller instead: the goroutine parks, and epoll wakes it on expiry.
type timer struct {
	f  *os.File
	fd uintptr
}

func newTimer() (*timer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &timer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleepUntil sleeps until due after start.
func (t *timer) sleepUntil(start time.Time, due time.Duration) error {
	left := due - time.Since(start)
	if left <= 0 {
		return nil
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(left))}
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := t.f.Read(expirations[:])
	return err
}

func (t *timer) close() { t.f.Close() }

// send issues one request, recording its spans on traced runs: a root
// span from the due time to the answer and under it the wait to be
// sent (load.queue) and the client's round trip (load.rtt), whose self
// time is the transport.
func send(ctx context.Context, c *client, it item, prefix string, rec *Recorder, req, late int64) reply {
	if rec == nil {
		return c.ask(ctx, it, prefix, 0, 0)
	}
	root, rtt := rec.NewID(), rec.NewID()
	t0 := rec.Now()
	rep := c.ask(ctx, it, prefix, req, rtt)
	t1 := rec.Now()
	rec.Put(Span{Parent: root, Name: "load.queue", Req: req, Start: t0 - late, End: t0})
	rec.Put(Span{ID: rtt, Parent: root, Name: "load.rtt", Req: req, Start: t0, End: t1})
	rec.Put(Span{ID: root, Name: "request", Req: req, Start: t0 - late, End: rec.Now()})
	return rep
}

// rateBin is the interval a closed loop's completion rate is sampled
// over.
const rateBin = 500 * time.Millisecond

// closedLoop keeps workers requests in flight until the deadline, each
// worker sending its next request as soon as the previous one is
// answered. It returns the answers per item index (one per distinct
// reply), the number completed, and the completion rate (per second)
// of each whole rateBin of the loop.
func closedLoop(ctx context.Context, c *client, items []item, workers int, d time.Duration) (map[int][]reply, int, []float64) {
	var mu sync.Mutex
	seen := map[int][]reply{}
	total := 0
	perSec := make([]float64, int(d/rateBin))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := map[int][]reply{}
			n := 0
			for i := w; time.Now().Before(deadline) && ctx.Err() == nil; i += workers {
				idx := i % len(items)
				rep := c.ask(ctx, items[idx], "", 0, 0)
				n++
				if bin := int(time.Since(start) / rateBin); bin < len(perSec) {
					mu.Lock()
					perSec[bin] += float64(time.Second / rateBin)
					mu.Unlock()
				}
				if !containsReply(local[idx], rep) {
					local[idx] = append(local[idx], rep)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			total += n
			for idx, reps := range local {
				for _, r := range reps {
					if !containsReply(seen[idx], r) {
						seen[idx] = append(seen[idx], r)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return seen, total, perSec
}

func containsReply(reps []reply, r reply) bool {
	for _, x := range reps {
		if x.status == r.status && x.kind == r.kind && x.text == r.text && (x.err == nil) == (r.err == nil) {
			return true
		}
	}
	return false
}
