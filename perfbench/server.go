package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hfstream"
	"hfstream/internal/exp"
	"hfstream/internal/workloads"
	"hfstream/serve"
	"hfstream/serve/client"
)

// env is what set-up leaves ready: the registry and oracle warmed, and
// for the serving workloads an in-process server (pre-warmed for
// hot_hits).
type env struct {
	oracleWarm time.Duration
	srv        *server
	prewarm    []served
}

// setup builds what the workload needs before its first request: the
// workload registry, every benchmark's oracle image, the experiment pool
// width, and for ncore_cold and hot_hits a server on loopback; hot_hits
// also fills the server's cache with the 63 dual-core cells.
func setup(workload string, nproc int) (*env, error) {
	e := &env{}
	t := time.Now()
	for _, b := range workloads.All() {
		if _, err := exp.Expected(b); err != nil {
			return nil, err
		}
	}
	e.oracleWarm = time.Since(t)
	exp.SetParallelism(nproc)
	if workload == "paper_figures" {
		return e, nil
	}
	srv, err := startServer(nproc)
	if err != nil {
		return nil, err
	}
	e.srv = srv
	if workload == "hot_hits" {
		e.prewarm = srv.serveAll(context.Background(), nil, dualCoreCells(), nproc)
	}
	return e, nil
}

func (e *env) close() error {
	if e.srv == nil {
		return nil
	}
	return e.srv.close()
}

// server is one in-process serve.Server on a loopback listener, with a
// typed client whose transport holds at most nproc connections.
type server struct {
	svc       *serve.Server
	hs        *http.Server
	transport *http.Transport
	cli       *client.Client
	serveErr  chan error
	// tracer, when set, makes the handler wrapper record a serve.handler
	// span per request; untraced passes leave it nil.
	tracer atomic.Pointer[tracer]
}

func startServer(nproc int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		svc:      serve.New(serve.Config{Workers: nproc}),
		serveErr: make(chan error, 1),
		transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		},
	}
	inner := s.svc.Handler()
	s.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := s.tracer.Load()
		if tr == nil {
			inner.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.Atoi(req.Header.Get(spanHeader))
		id := tr.begin("serve.handler", req.Header.Get(groupHeader), parent)
		inner.ServeHTTP(w, req)
		tr.end(id)
	})}
	go func() { s.serveErr <- s.hs.Serve(ln) }()
	s.cli = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: spanTransport{s.transport}}))
	return s, nil
}

// close shuts the listener and the server's pool down and waits for both.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if derr := s.svc.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-s.serveErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.transport.CloseIdleConnections()
	return err
}

const (
	spanHeader  = "X-Perfbench-Span"
	groupHeader = "X-Perfbench-Group"
)

// spanTransport forwards the client span of a traced request to the
// handler wrapper in headers, so the server-side span gets its parent.
type spanTransport struct{ base http.RoundTripper }

type spanRef struct {
	id    int
	group string
}

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := req.Context().Value(spanKey{}).(spanRef); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(ref.id))
		req.Header.Set(groupHeader, ref.group)
	}
	return t.base.RoundTrip(req)
}

// served is one /v1/run round trip.
type served struct {
	c   cell
	lat time.Duration
	res *client.RunResult
	err error
}

// do sends one request through the typed client and times it; with a
// tracer it records the client.run span.
func (s *server) do(ctx context.Context, tr *tracer, c cell) served {
	if tr != nil {
		id := tr.begin("client.run", c.label(), 0)
		ctx = context.WithValue(ctx, spanKey{}, spanRef{id: id, group: c.label()})
		defer tr.end(id)
	}
	start := time.Now()
	res, err := s.cli.Run(ctx, c.spec)
	return served{c: c, lat: time.Since(start), res: res, err: err}
}

// serveAll sends every cell once from nproc closed-loop clients taking
// the next cell in list order, and returns the responses in list order.
func (s *server) serveAll(ctx context.Context, tr *tracer, cells []cell, nproc int) []served {
	out := make([]served, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cells) {
					return
				}
				out[i] = s.do(ctx, tr, cells[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// ref is the direct-API result for one cell: the exact metrics bytes
// hfstream.WithMetrics writes, and how long the direct call took.
type ref struct {
	body []byte
	wall time.Duration
}

// directRefs runs every cell through the direct API (Spec.RunCtx with
// WithMetrics) on nproc goroutines. A cell the API fails is a problem:
// the workloads only hold cells that must succeed.
func directRefs(r *run, cells []cell) map[string]ref {
	out := make(map[string]ref, len(cells))
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < r.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cells) {
					return
				}
				var buf bytes.Buffer
				start := time.Now()
				_, err := cells[i].spec.RunCtx(context.Background(), hfstream.WithMetrics(&buf))
				wall := time.Since(start)
				mu.Lock()
				if err != nil {
					r.problem("direct API run of %s: %v", cells[i].label(), err)
				} else {
					out[cells[i].label()] = ref{body: buf.Bytes(), wall: wall}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// verify accepts a response only if it is a 200 whose body equals the
// direct-API bytes for its cell and whose X-Hfserve-Cache provenance is
// the expected one.
func verify(sv served, refs map[string]ref, wantCache string) error {
	want, ok := refs[sv.c.label()]
	switch {
	case sv.err != nil:
		return sv.err
	case sv.res.Cache != wantCache:
		return fmt.Errorf("X-Hfserve-Cache %q, want %q", sv.res.Cache, wantCache)
	case !ok:
		return errors.New("no direct-API reference")
	case !bytes.Equal(sv.res.Body, want.body):
		return errors.New("body differs from the direct-API bytes")
	}
	return nil
}

// tally counts one operation as attempted, and as failed when err is set.
func (r *run) tally(label string, err error) bool {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", label, err)
		return false
	}
	return true
}

func mustStartServer(nproc int) *server {
	srv, err := startServer(nproc)
	if err != nil {
		fatalf("start server: %v", err)
	}
	return srv
}

func (r *run) closeServer(srv *server) {
	if err := srv.close(); err != nil {
		r.problem("close server: %v", err)
	}
}

// counters are the serve.Metrics fields that must repeat exactly when the
// same requests are replayed against a fresh server.
type counters struct {
	Requests, Runs, Failures, CacheHits, CacheMisses, Coalesced, Shed uint64
	Cycles, Instructions, StallCycles                                 uint64
}

func countersOf(m serve.Metrics) counters {
	return counters{
		Requests: m.Requests, Runs: m.Runs, Failures: m.Failures,
		CacheHits: m.CacheHits, CacheMisses: m.CacheMisses,
		Coalesced: m.Coalesced, Shed: m.ShedQueueFull,
		Cycles: m.Simulated.Cycles, Instructions: m.Simulated.Instructions,
		StallCycles: m.Simulated.StallCycles,
	}
}

// checkExclusionsServed sends the excluded cells to a throwaway server
// (so the measured servers' counters stay clean) and requires each to
// come back as the typed run_failed error.
func checkExclusionsServed(r *run, excluded []cell) {
	srv := mustStartServer(r.nproc)
	defer r.closeServer(srv)
	for _, sv := range srv.serveAll(context.Background(), nil, excluded, r.nproc) {
		var apiErr *client.APIError
		if !errors.As(sv.err, &apiErr) || apiErr.Detail.Code != "run_failed" {
			r.problem("excluded cell %s: served result %v, want a typed run_failed error", sv.c.label(), sv.err)
		}
	}
}

// ncoreStats is one ncore_cold pass: every cell sent once to a fresh
// server.
type ncoreStats struct {
	wall    time.Duration
	lat     []time.Duration
	ok      int
	metrics serve.Metrics
	served  []served
}

func ncorePass(r *run, srv *server, tr *tracer, cells []cell, refs map[string]ref) ncoreStats {
	srv.tracer.Store(tr)
	start := time.Now()
	out := srv.serveAll(context.Background(), tr, cells, r.nproc)
	st := ncoreStats{wall: time.Since(start), metrics: srv.svc.Metrics(), served: out}
	for _, sv := range out {
		st.lat = append(st.lat, sv.lat)
		if r.tally(sv.c.label(), verify(sv, refs, "miss")) {
			st.ok++
		}
	}
	return st
}

// runNcoreCold sends the seed's 84 N-core cells, each a cold miss, to a
// fresh server per pass. Latencies are pooled over the run's passes.
func runNcoreCold(r *run, e *env) {
	cells, excluded := ncoreCells(r.seed)
	fmt.Printf("ncore_cold: %d cells, %d excluded by the static rule\n", len(cells), len(excluded))
	checkExclusions(r, excluded)
	checkExclusionsServed(r, excluded)
	refs := directRefs(r, cells)

	untracedFor, tracedFor := r.phases()
	var passes, tracedPasses []ncoreStats
	// The first pass uses the set-up server; each later pass gets a fresh
	// one, so every request is a cold miss.
	srv, used := e.srv, false
	e.srv = nil
	defer func() { r.closeServer(srv) }()
	onePass := func(tr *tracer) ncoreStats {
		if used {
			r.closeServer(srv)
			srv = mustStartServer(r.nproc)
		}
		used = true
		return ncorePass(r, srv, tr, cells, refs)
	}
	for range ncorePasses(untracedFor) {
		passes = append(passes, onePass(nil))
	}
	var tr *tracer
	if r.trace {
		tr = newTracer()
		for range ncorePasses(tracedFor) {
			tracedPasses = append(tracedPasses, onePass(tr))
		}
	}

	all := append(append([]ncoreStats(nil), passes...), tracedPasses...)
	for i := 1; i < len(all); i++ {
		if a, b := countersOf(all[0].metrics), countersOf(all[i].metrics); a != b {
			r.problem("serve counters moved between passes of the same requests: %+v vs %+v", a, b)
		}
	}
	r.ledger.checkBodies(r, refs)
	r.ledger.check(r, fmt.Sprintf("ncore_cold/seed%d/serve_counters", r.seed), countersOf(all[0].metrics))
	if !r.trace {
		var walls, rps []float64
		var lat []time.Duration
		for _, p := range passes {
			walls = append(walls, p.wall.Seconds())
			rps = append(rps, float64(p.ok)/p.wall.Seconds())
			lat = append(lat, p.lat...)
		}
		r.set("wall_s", "s", median(walls))
		r.set("rps", "1/s", median(rps))
		r.setLatency([]latencyStats{summarize(lat)})
		return
	}

	lt := composeAll(r, tr, cellItems(r, cells, refs))
	if c := countersOf(passes[0].metrics); c.Cycles != lt.counts.Cycles ||
		c.Instructions != lt.counts.Instructions || c.StallCycles != lt.counts.StallCycles {
		r.problem("composed sim counts (%d cycles, %d instrs, %d stalls) differ from the served ones (%+v)",
			lt.counts.Cycles, lt.counts.Instructions, lt.counts.StallCycles, c)
	}
	m := passes[len(passes)-1].metrics
	r.setLayers(layerValues{
		lt: lt, tr: tr, specs: specsOf(cells), benches: benchNames(), oracleWarm: e.oracleWarm,
		srv: srv, hitCells: cells, serveM: &m, overheadMs: missOverheadMs(passes[0].served, refs),
		untraced: ncoreE2E(passes), traced: ncoreE2E(tracedPasses),
	})
}

// missOverheadMs is the median, over cache misses, of the served latency
// minus the direct Spec.RunCtx time for the same cell: what serving adds
// to a simulation.
func missOverheadMs(misses []served, refs map[string]ref) float64 {
	var overhead []float64
	for _, sv := range misses {
		if d, ok := refs[sv.c.label()]; ok {
			overhead = append(overhead, ms(sv.lat-d.wall))
		}
	}
	return median(overhead)
}

func ncoreE2E(ps []ncoreStats) e2e {
	var wall []float64
	var lat []time.Duration
	for _, p := range ps {
		wall = append(wall, p.wall.Seconds())
		lat = append(lat, p.lat...)
	}
	return e2e{wallS: median(wall), p50Ms: ms(summarize(lat).p50)}
}

// ncorePassSeconds is the nominal length of one ncore_cold pass on the
// reference machine (2 vCPUs). A run makes a fixed number of passes,
// derived from its duration, so that the latency sample, and so the tail
// percentile, is the same size in every run of that duration.
const ncorePassSeconds = 7

func ncorePasses(d time.Duration) int {
	return max(1, int(d.Seconds())/ncorePassSeconds)
}

func specsOf(cells []cell) []hfstream.Spec {
	out := make([]hfstream.Spec, len(cells))
	for i, c := range cells {
		out[i] = c.spec
	}
	return out
}

func benchNames() []string {
	var out []string
	for _, b := range hfstream.Benchmarks() {
		out = append(out, b.Name())
	}
	return out
}
