package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/textio"
)

// verifyWorkers is the goroutine count of the untimed recomputes that
// verify a loop's outputs.
func verifyWorkers() int { return runtime.GOMAXPROCS(0) }

// httpReplays caps the traced requests replayed through the handler's call
// chain, and coldPhaseReplays the cold ones among them re-run phase by phase.
const (
	httpReplays      = 150
	coldPhaseReplays = 40
)

// httpReq is one request of a workload's sequence.
type httpReq struct {
	key     string // identifies the problem document (equal keys, equal bodies)
	body    []byte
	edit    bool // a τ-edit of the client's previous version of the design
	quality bool // counted by increase_pct_mean (a fixed prefix of the sequence)
}

type httpRecord struct {
	key string
	fp  [32]byte
}

// httpInst drives one closed-loop client against one server. The client
// waits for each reply, as the callers it stands for do, which leaves the
// server a core of its own and the other to the runtime; a second client
// made every request contend for the host's two cores, and the figures
// followed the host's load more than the server's work.
type httpInst struct {
	srv    *server
	client *http.Client
	next   func() httpReq
	// cycleLen is the number of requests that send every document of the
	// workload at least once.
	cycleLen int
	out      outcomes // keyed by document

	mu       sync.Mutex
	bodies   map[string][]byte   // problem body of every key not yet verified
	want     map[string][32]byte // fingerprint of every verified key
	incr     map[string]float64  // increase of every quality key
	records  []httpRecord        // responses since the last verify
	replay   []httpReq           // the first traced requests, in send order
	nextOp   int64
	tauEdits int // τ-edits sent by the traced loop
	st0, st1 service.Stats
}

func newHTTPInst(next func() httpReq) (*httpInst, error) {
	srv, err := startServer(service.Config{}, "client.request")
	if err != nil {
		return nil, err
	}
	return &httpInst{
		srv: srv, client: newClient(), next: next,
		bodies: map[string][]byte{}, want: map[string][32]byte{}, incr: map[string]float64{},
	}, nil
}

func (h *httpInst) sweepFleet() *fleet { return nil }

func (h *httpInst) cycle() int { return h.cycleLen }

func (h *httpInst) tally() *outcomes { return &h.out }

func (h *httpInst) close() {
	h.srv.close()
	closeClient(h.client)
}

// send posts one request outside any loop (set-up pre-warming) and records
// the response for verification.
func (h *httpInst) send(ctx context.Context, req httpReq) error {
	sol, err := postSchedule(ctx, h.client, h.srv.url(), req.body)
	if err != nil {
		return err
	}
	h.record(req, sol)
	return nil
}

func (h *httpInst) record(req httpReq, sol *textio.SolutionDoc) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.want[req.key]; !ok {
		h.bodies[req.key] = req.body
	}
	if req.quality {
		h.incr[req.key] = sol.IncreasePercent
	}
	h.records = append(h.records, httpRecord{req.key, fingerprint(sol)})
}

func (h *httpInst) drive(ctx context.Context, d time.Duration, minCalls int, tr *tracer) (*loopStats, error) {
	h.srv.tr.Store(tr)
	defer h.srv.tr.Store(nil)
	h.replay, h.tauEdits = h.replay[:0], 0
	h.st0 = h.srv.srv.Stats()
	m0 := readMem()
	ls := &loopStats{start: time.Now()}
	for time.Since(ls.start) < d || ls.attempted < minCalls {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		req := h.next()
		h.nextOp++
		op, rctx := h.nextOp, ctx
		if tr != nil {
			rctx = withOp(ctx, op)
			if req.edit {
				h.tauEdits++
			}
			if len(h.replay) < httpReplays {
				h.replay = append(h.replay, req)
			}
		}
		t0 := time.Now()
		status, body, l, err := post(rctx, h.client, h.srv.url()+"/v1/schedule", req.body)
		t1 := time.Now()
		ls.attempted++
		if err != nil || status != http.StatusOK {
			ls.failed++
			h.out.mark(req.key, 1, 1)
			continue
		}
		sol, err := decodeSolution(body)
		if err != nil {
			return nil, incorrect("%s: %v", req.key, err)
		}
		bad := 0
		if !sol.Deterministic || len(sol.Violations) != 0 {
			bad = 1
		}
		ls.failed += bad
		h.out.mark(req.key, 1, bad)
		tr.add(op, "client.request", "", t0, t1)
		ls.lat = append(ls.lat, float64(l)/1e6)
		ls.at = append(ls.at, t1.Sub(ls.start))
		ls.done = append(ls.done, t1.Sub(ls.start)) // one problem per request
		h.record(req, sol)
	}
	ls.wall = time.Since(ls.start)
	ls.mem = readMem().since(m0)
	h.st1 = h.srv.srv.Stats()
	return ls, nil
}

// verify recomputes every new problem cold through the library, checks it
// with the independent checker, and requires every response (memo miss,
// hit or warm start) to carry the library's table.
func (h *httpInst) verify(ctx context.Context) error {
	h.mu.Lock()
	var keys []string
	for k := range h.bodies {
		keys = append(keys, k)
	}
	h.mu.Unlock()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		work     = make(chan string)
	)
	for w := 0; w < verifyWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				h.mu.Lock()
				body := h.bodies[k]
				h.mu.Unlock()
				sol, err := libraryCold(ctx, body, nil)
				if err == nil {
					_, err = checkSolution(body, sol)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", k, err)
				}
				mu.Unlock()
				if err == nil {
					h.mu.Lock()
					h.want[k] = fingerprint(sol)
					delete(h.bodies, k)
					h.mu.Unlock()
				}
			}
		}()
	}
	for _, k := range keys {
		work <- k
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, r := range h.records {
		if r.fp != h.want[r.key] {
			return incorrect("%s: served table differs from the library's cold recompute", r.key)
		}
	}
	h.records = h.records[:0]
	return nil
}

// decodeProblem parses and validates a v1 problem body.
func decodeProblem(body []byte) (*service.Problem, error) {
	doc, err := textio.ReadProblem(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return service.FromDoc(doc)
}

// libraryCold schedules a problem body through the library, reporting phase
// transitions to phases.
func libraryCold(ctx context.Context, body []byte, phases core.PhaseFunc) (*textio.SolutionDoc, error) {
	p, err := decodeProblem(body)
	if err != nil {
		return nil, err
	}
	res, err := core.SchedulePhased(ctx, p.Graph, p.Arch, p.Options, phases)
	if err != nil {
		return nil, err
	}
	return textio.EncodeSolution(res), nil
}

func (h *httpInst) layers(ctx context.Context, base, traced *loopStats, tr *tracer, m *metricSet) error {
	handler, client := tr.durations("httpserver.handler"), tr.durations("client.request")
	var hd, transport []float64
	for op, c := range client {
		if s, ok := handler[op]; ok {
			hd = append(hd, s)
			transport = append(transport, c-s)
		}
	}
	m.set("httpserver.handler_ms", mean(hd), len(hd))
	m.set("client.transport_ms", mean(transport), len(transport))

	// Replay the traced requests through the handler's public call chain
	// on a service of the same configuration.
	svc, err := service.New(service.Config{})
	if err != nil {
		return err
	}
	var read, decode, hit, warm, cold, encode, write, kb, chain []float64
	var coldBodies [][]byte
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e6 }
	for _, req := range h.replay {
		t0 := time.Now()
		doc, err := textio.ReadProblem(bytes.NewReader(req.body))
		if err != nil {
			return err
		}
		t1 := time.Now()
		p, err := service.FromDoc(doc)
		if err != nil {
			return err
		}
		t2 := time.Now()
		sol, err := svc.Schedule(ctx, p)
		if err != nil {
			return err
		}
		t3 := time.Now()
		out := textio.EncodeSolution(sol.Result)
		t4 := time.Now()
		var buf bytes.Buffer
		if err := textio.WriteSolution(&buf, out); err != nil {
			return err
		}
		t5 := time.Now()
		if fingerprint(out) != h.want[req.key] {
			return incorrect("%s: replayed solution (hit=%v warm=%v) differs from the library's", req.key, sol.CacheHit, sol.WarmStart)
		}
		read, decode = append(read, ms(t0, t1)), append(decode, ms(t1, t2))
		switch {
		case sol.CacheHit:
			hit = append(hit, ms(t2, t3))
		case sol.WarmStart:
			warm = append(warm, ms(t2, t3))
		default:
			cold = append(cold, ms(t2, t3))
			coldBodies = append(coldBodies, req.body)
		}
		encode, write = append(encode, ms(t3, t4)), append(write, ms(t4, t5))
		kb = append(kb, float64(buf.Len())/1024)
		chain = append(chain, ms(t0, t5))
	}
	m.set("textio.read_problem_ms", mean(read), len(read))
	m.set("textio.decode_problem_ms", mean(decode), len(decode))
	m.set("service.hit_ms", mean(hit), len(hit))
	m.set("service.warm_ms", mean(warm), len(warm))
	m.set("service.cold_ms", mean(cold), len(cold))
	m.set("textio.encode_solution_ms", mean(encode), len(encode))
	m.set("textio.write_solution_ms", mean(write), len(write))
	m.set("textio.response_kb", mean(kb), len(kb))
	m.set("httpserver.overhead_ms", mean(hd)-mean(chain), len(hd))

	// Where the replay ran cold, split the core run into its phases.
	if len(coldBodies) > 0 {
		var fan, merge, val []float64
		var pc phaseClock
		for _, body := range coldBodies[:min(coldPhaseReplays, len(coldBodies))] {
			t0 := time.Now()
			if _, err := libraryCold(ctx, body, pc.observe); err != nil {
				return err
			}
			t1 := time.Now()
			fan, merge, val = append(fan, ms(t0, pc.merge)), append(merge, ms(pc.merge, pc.validate)), append(val, ms(pc.validate, t1))
		}
		m.set("listsched.fanout_ms", mean(fan), len(fan))
		m.set("core.merge_ms", mean(merge), len(merge))
		m.set("core.validate_ms", mean(val), len(val))
	}

	reqs := h.st1.Requests - h.st0.Requests
	m.set("service.requests", float64(reqs), 1)
	if reqs > 0 {
		m.set("service.hit_ratio", float64(h.st1.CacheHits-h.st0.CacheHits)/float64(reqs), int(reqs))
	}
	m.set("service.tau_edits", float64(h.tauEdits), 1)
	if h.tauEdits > 0 {
		m.set("service.warm_ratio", float64(h.st1.WarmStarts-h.st0.WarmStarts)/float64(h.tauEdits), h.tauEdits)
	}
	m.set("service.cache_len", float64(h.st1.CacheLen), 1)
	sheds, err := counter(h.srv.srv.MetricsRegistry(), "cpg_http_shed_total")
	if err != nil {
		return err
	}
	m.set("httpserver.shed_total", float64(sheds), 1)
	var incr []float64
	for _, v := range h.incr {
		incr = append(incr, v)
	}
	m.set("increase_pct_mean", mean(incr), len(incr))
	return nil
}
