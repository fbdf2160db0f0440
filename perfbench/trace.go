package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a schedule
// call, an HTTP request, a sweep) share Op; Parent names the enclosing span
// of the same operation ("" for the root).
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them once the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(op int64, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{op, name, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// durations returns the duration in ms of every span called name, keyed by
// operation.
func (t *tracer) durations(name string) map[int64]float64 {
	out := map[int64]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// write dumps the spans as JSON lines into dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(&s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// opHeader carries the operation ID from the benchmark's HTTP client to the
// handler wrapper, so server-side spans join their client-side operation.
const opHeader = "X-Perfbench-Op"

type opKey struct{}

// withOp tags ctx with an operation ID for opTransport.
func withOp(ctx context.Context, op int64) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}

// opTransport copies the operation ID of a request's context into opHeader.
type opTransport struct{ base http.RoundTripper }

func (o opTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	op, ok := r.Context().Value(opKey{}).(int64)
	if !ok {
		return o.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(opHeader, strconv.FormatInt(op, 10))
	return o.base.RoundTrip(r)
}

// traceHandler wraps the server's routes with an "httpserver.handler" span
// (child of parent) per request carrying opHeader. The tracer is swapped
// between loops, so it sits behind an atomic pointer.
type traceHandler struct {
	next   http.Handler
	tr     *atomic.Pointer[tracer]
	parent string
}

func (h traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := h.tr.Load()
	op, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
	if t == nil || err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	t.add(op, "httpserver.handler", h.parent, start, time.Now())
}

// newClient is the benchmark's HTTP client: loopback only, no proxy, a
// small keep-alive pool, and operation tagging for traced runs.
func newClient() *http.Client {
	return &http.Client{Transport: opTransport{&http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     30 * time.Second,
	}}}
}

func closeClient(c *http.Client) {
	if t, ok := c.Transport.(opTransport); ok {
		if tr, ok := t.base.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
	}
}
