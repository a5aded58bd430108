// Package serve turns the deterministic simulator into a long-lived HTTP
// JSON service. POST /run accepts an hfstream.Spec (benchmark + design +
// run mode), executes it on a bounded worker pool shared with the
// experiment harness (internal/exp.Pool), and responds with the run's
// metrics snapshot — the exact bytes hfstream.WithMetrics writes, so a
// served response is byte-identical to calling the library API directly.
//
// Three properties make the service safe to put in front of heavy
// traffic:
//
//   - Content-addressed caching: requests are canonicalized and hashed
//     (hfstream.Spec.Key), and successful response bodies are cached in a
//     byte-budgeted LRU. The simulator is deterministic (RESILIENCE.md),
//     so a cache hit is guaranteed byte-identical to a fresh run.
//   - Request coalescing: concurrent identical requests collapse onto one
//     in-flight simulation (singleflight); every caller gets the same
//     bytes, and exactly one underlying run happens per unique request.
//   - Backpressure: when the queue is full the service sheds load with a
//     typed 429 JSON error instead of queuing unboundedly, and
//     BeginDrain/Drain reject new work with 503 while letting in-flight
//     jobs finish — the SIGTERM path of cmd/hfserve.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"hfstream"
	"hfstream/internal/exp"
)

// Defaults for the zero Config.
const (
	DefaultQueueDepth = 64
	DefaultCacheBytes = 64 << 20
	DefaultJobTimeout = 2 * time.Minute

	// maxRequestBytes bounds a /run request body; specs are tiny and an
	// unbounded read is a trivial memory DoS.
	maxRequestBytes = 1 << 20
)

// Config parameterizes a Server. The zero value picks the defaults
// above; CacheBytes < 0 disables caching (coalescing still applies).
type Config struct {
	// Workers is the simulation pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs accepted but not yet running; a submission
	// past the bound is shed with 429 rather than queued.
	QueueDepth int
	// CacheBytes is the result cache budget (0 = default, < 0 = off).
	CacheBytes int64
	// JobTimeout caps each simulation's wall-clock time through the
	// ctx-first run API; an expired job fails with a typed 504.
	JobTimeout time.Duration
	// Peer, when non-nil, plugs this server into a cluster cache tier
	// (serve/cluster): on a local cache miss the server asks the key's
	// owner shard for the bytes before simulating, and publishes fresh
	// results back to the owners. See peer.go for the contract.
	Peer Peer
}

// Server is one service instance. Create it with New, mount Handler on
// an http.Server, and call Drain on shutdown.
type Server struct {
	cfg     Config
	pool    *exp.Pool
	cache   *resultCache // nil when disabled
	peer    Peer         // nil when not clustered
	flights flightGroup

	draining atomic.Bool
	start    time.Time
	baseCtx  context.Context // job lifetime: server-scoped, not request-scoped
	cancel   context.CancelFunc

	requests    atomic.Uint64
	streams     atomic.Uint64
	sweeps      atomic.Uint64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	coalesced   atomic.Uint64
	peerHits    atomic.Uint64
	peerMisses  atomic.Uint64
	runs        atomic.Uint64
	failures    atomic.Uint64
	shed        atomic.Uint64
	rejected    atomic.Uint64
	peerPutBad  atomic.Uint64
	simCycles   atomic.Uint64
	simInstrs   atomic.Uint64
	simStalls   atomic.Uint64

	// run executes one spec; overridable by tests to model slow or
	// failing jobs without real simulations (same seam as exp.Runner.run).
	// hooks, when non-nil, carries the streaming progress callback.
	run func(ctx context.Context, spec hfstream.Spec, hooks *streamHooks) *outcome
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = DefaultJobTimeout
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		pool:    exp.NewPool(cfg.Workers, cfg.QueueDepth),
		peer:    cfg.Peer,
		start:   time.Now(),
		baseCtx: ctx,
		cancel:  cancel,
	}
	if cfg.CacheBytes > 0 {
		s.cache = newResultCache(cfg.CacheBytes)
	}
	s.run = s.execSpec
	return s
}

// Handler returns the service's HTTP surface. The wire contract is
// versioned under /v1/ (documented in full in serve/API.md); the
// original unversioned paths are kept as aliases for existing clients:
//
//	POST /v1/run            run a spec (or serve it from cache), body = metrics JSON
//	POST /v1/run?stream=ndjson  the same run as live NDJSON events (see stream.go)
//	POST /v1/sweep          run a (benches x designs x options) grid, cells
//	                        streamed as NDJSON events as they complete (see sweep.go)
//	GET  /v1/metrics        service counters (cache, queue, peering, simulated work)
//	GET  /v1/healthz        liveness; 503 once draining so balancers stop routing
//	GET  /v1/peer/{key}     cluster-internal: the cached bytes for a Spec.Key,
//	                        404 (not_cached) on miss — never simulates
//	PUT  /v1/peer/{key}     cluster-internal: publish a replica's fresh result
//	                        into this shard's cache
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, prefix := range []string{"", "/v1"} {
		mux.HandleFunc(prefix+"/run", s.handleRun)
		mux.HandleFunc(prefix+"/sweep", s.handleSweep)
		mux.HandleFunc(prefix+"/metrics", s.handleMetrics)
		mux.HandleFunc(prefix+"/healthz", s.handleHealthz)
	}
	mux.HandleFunc("/v1/peer/", s.handlePeer)
	return mux
}

// BeginDrain flips the server into draining mode: new /run work is
// rejected with a typed 503 and /healthz reports draining, while queued
// and in-flight jobs keep running. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain is the graceful-shutdown path: it begins draining, closes the
// pool's intake, and waits for every queued and in-flight job to finish.
// If ctx expires first, in-flight simulations are canceled through the
// ctx-first run API and the ctx error is returned.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	s.pool.Close()
	err := s.pool.Wait(ctx)
	if err != nil {
		s.cancel()
	}
	return err
}

// Error codes carried in the typed JSON error envelope.
const (
	codeBadRequest = "bad_request"
	codeQueueFull  = "queue_full"
	codeDraining   = "draining"
	codeTimeout    = "timeout"
	codeCanceled   = "canceled"
	codeDeadlock   = "deadlock"
	codeRunFailed  = "run_failed"
	codeInternal   = "internal"
	// codeIntegrity rejects a peer PUT whose body fails digest
	// verification: the bytes were damaged in flight (truncated or
	// corrupted) and must never enter the cache.
	codeIntegrity = "integrity"
)

// Retry-After hints on backpressure responses (seconds). Queue-full is
// transient — a breath usually clears it; draining is terminal for
// this replica, so the hint is longer and clients should prefer
// another instance.
const (
	retryAfterQueueFull = 1
	retryAfterDraining  = 2
)

// statusClientClosed reports a run stopped because its requester went
// away (the nginx 499 convention); streaming requests join the
// simulation to the request context, so a client disconnect cancels the
// run mid-flight rather than burning a worker on an unwatched result.
const statusClientClosed = 499

// ErrorEnvelope is the JSON envelope of every non-200 response. It is
// exported (with ErrorDetail) so typed clients — serve/client, the
// cluster peer-fill path, hfload — decode errors structurally instead
// of scraping bodies.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the typed error payload inside an ErrorEnvelope (and
// inside streaming error events).
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Diagnosis carries the structured machine snapshot for deadlock
	// detections (hfstream.DiagnosisJSON form).
	Diagnosis json.RawMessage `json:"diagnosis,omitempty"`
}

// outcome is one request's terminal state: either the cacheable metrics
// body or a rendered error envelope.
type outcome struct {
	status int
	body   []byte
	source string // "miss" (fresh run) or "hit" (leader found cache)
	ok     bool
	// retryAfter, when positive, emits a Retry-After header (seconds)
	// telling clients when the condition is worth re-probing.
	retryAfter int
}

// withRetryAfter attaches a Retry-After hint to an error outcome.
func (o *outcome) withRetryAfter(secs int) *outcome {
	o.retryAfter = secs
	return o
}

func errorOutcome(status int, code, msg string, diag json.RawMessage) *outcome {
	body, err := json.Marshal(ErrorEnvelope{Error: ErrorDetail{Code: code, Message: msg, Diagnosis: diag}})
	if err != nil {
		status, body = http.StatusInternalServerError,
			[]byte(`{"error":{"code":"internal","message":"error marshal failed"}}`)
	}
	return &outcome{status: status, body: append(body, '\n')}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeOutcome(w, "", "", errorOutcome(http.StatusMethodNotAllowed, codeBadRequest, "POST required", nil))
		return
	}
	s.requests.Add(1)
	stream := r.URL.Query().Get("stream")
	if stream != "" && stream != "ndjson" {
		writeOutcome(w, "", "", errorOutcome(http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("unsupported stream mode %q (only ndjson)", stream), nil))
		return
	}
	var spec hfstream.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeOutcome(w, "", "", errorOutcome(http.StatusBadRequest, codeBadRequest, "request body: "+err.Error(), nil))
		return
	}
	key, err := spec.Key()
	if err != nil {
		writeOutcome(w, "", "", errorOutcome(http.StatusBadRequest, codeBadRequest, err.Error(), nil))
		return
	}
	if stream == "ndjson" {
		s.streamRun(w, r, key, spec)
		return
	}

	// Fast path: previously served and still resident.
	if body, ok := s.cache.Get(key); ok {
		s.cacheHits.Add(1)
		writeOutcome(w, key, "hit", &outcome{status: http.StatusOK, body: body, ok: true})
		return
	}

	out, joined := s.flights.do(key, func() *outcome { return s.runOne(s.baseCtx, key, spec, nil) })
	src := out.source
	if joined {
		s.coalesced.Add(1)
		src = "coalesced"
	}
	writeOutcome(w, key, src, out)
}

// runOne is the flight leader's path: admission control, pool submit,
// and cache publication. It never runs concurrently for the same key.
// ctx bounds the job (baseCtx for blocking requests, the joined
// request context for streaming ones); hooks carries streaming
// progress delivery.
func (s *Server) runOne(ctx context.Context, key string, spec hfstream.Spec, hooks *streamHooks) *outcome {
	if s.draining.Load() {
		s.rejected.Add(1)
		return errorOutcome(http.StatusServiceUnavailable, codeDraining,
			"server is draining; retry against another instance", nil).withRetryAfter(retryAfterDraining)
	}
	// A flight for this key may have completed between the handler's
	// cache check and this one; the leader publishes to the cache before
	// the flight deregisters, so this re-check closes the gap.
	if body, ok := s.cache.Get(key); ok {
		s.cacheHits.Add(1)
		return &outcome{status: http.StatusOK, body: body, source: "hit", ok: true}
	}
	s.cacheMisses.Add(1)

	// Cluster cache tier: on a local miss, ask the key's owner shard for
	// the bytes before burning a worker on a simulation. Determinism makes
	// a peer's bytes indistinguishable from a local run, so a peer hit is
	// cached and served exactly like one. Fill is bounded (the peering
	// layer owns the timeout) and failure only means "simulate locally" —
	// a dead or slow peer can never fail the request.
	if s.peer != nil {
		if body, ok := s.peer.Fill(ctx, key); ok {
			s.peerHits.Add(1)
			s.cache.Put(key, body)
			return &outcome{status: http.StatusOK, body: body, source: "peer", ok: true}
		}
		s.peerMisses.Add(1)
	}

	ch := make(chan *outcome, 1)
	err := s.pool.TrySubmit(func() { ch <- runProtected(func() *outcome { return s.run(ctx, spec, hooks) }) })
	switch {
	case errors.Is(err, exp.ErrPoolFull):
		s.shed.Add(1)
		return errorOutcome(http.StatusTooManyRequests, codeQueueFull,
			fmt.Sprintf("queue full (%d jobs pending, depth %d); load shed rather than queued unboundedly",
				s.pool.Pending(), s.cfg.QueueDepth), nil).withRetryAfter(retryAfterQueueFull)
	case err != nil: // pool closed: drain won the race
		s.rejected.Add(1)
		return errorOutcome(http.StatusServiceUnavailable, codeDraining,
			"server is draining", nil).withRetryAfter(retryAfterDraining)
	}
	out := <-ch
	if out.ok {
		s.cache.Put(key, out.body)
		// Publish the fresh result to the key's owner shards (async,
		// best-effort) so any replica's future miss peer-hits instead of
		// re-simulating. The spec rides along so the receiving shard can
		// verify the key↔body binding before caching.
		if s.peer != nil {
			s.peer.Store(key, spec, out.body)
		}
	}
	return out
}

// execSpec runs one simulation and classifies its outcome. The response
// body is exactly what hfstream.WithMetrics writes, which is what makes
// direct-API and served results byte-comparable. A non-nil hooks wires
// the streaming progress callback into the run (progress delivery never
// changes the metrics bytes — the fast-forward invariant covers
// progress boundaries, and the differential battery asserts it).
func (s *Server) execSpec(ctx context.Context, spec hfstream.Spec, hooks *streamHooks) *outcome {
	s.runs.Add(1)
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	opts := []hfstream.RunOpt{}
	var buf bytes.Buffer
	opts = append(opts, hfstream.WithMetrics(&buf))
	if hooks != nil && hooks.progress != nil {
		opts = append(opts, hfstream.WithProgress(hooks.progress))
		if hooks.every > 0 {
			opts = append(opts, hfstream.WithProgressInterval(hooks.every))
		}
	}
	res, err := spec.RunCtx(ctx, opts...)
	if err != nil {
		s.failures.Add(1)
		var dl *hfstream.DeadlockError
		var ce *hfstream.CanceledError
		var ve *hfstream.ValidationError
		switch {
		case errors.As(err, &dl):
			var diag json.RawMessage
			if dl.Diag != nil {
				diag, _ = hfstream.DiagnosisJSON(dl.Diag)
			}
			return errorOutcome(http.StatusUnprocessableEntity, codeDeadlock, err.Error(), diag)
		case errors.As(err, &ce):
			// Distinguish the two ways a run's context dies: an expired
			// per-job budget is a timeout; an upstream cancel (client
			// disconnect on a streaming request, or a drain deadline) is a
			// cancellation — the graceful-degradation path, not a fault.
			if ctx.Err() == context.Canceled {
				return errorOutcome(statusClientClosed, codeCanceled,
					"run canceled by its requester: "+err.Error(), nil)
			}
			return errorOutcome(http.StatusGatewayTimeout, codeTimeout,
				fmt.Sprintf("job exceeded its budget (%v): %v", s.cfg.JobTimeout, err), nil)
		case errors.As(err, &ve):
			return errorOutcome(http.StatusBadRequest, codeBadRequest, err.Error(), nil)
		default:
			return errorOutcome(http.StatusUnprocessableEntity, codeRunFailed, err.Error(), nil)
		}
	}
	s.simCycles.Add(res.Cycles)
	var instrs, stalls uint64
	for i := range res.Instructions {
		instrs += res.Instructions[i]
	}
	for i := range res.CoreCycles {
		stalls += res.CoreCycles[i] - res.IssueCycles[i]
	}
	s.simInstrs.Add(instrs)
	s.simStalls.Add(stalls)
	return &outcome{status: http.StatusOK, body: buf.Bytes(), source: "miss", ok: true}
}

// writeOutcome writes one terminal response. Cache provenance rides in
// headers, never the body, so hit/miss/coalesced bodies stay
// byte-identical.
func writeOutcome(w http.ResponseWriter, key, source string, out *outcome) {
	w.Header().Set("Content-Type", "application/json")
	if key != "" {
		w.Header().Set("X-Hfserve-Key", key)
	}
	if source != "" {
		w.Header().Set("X-Hfserve-Cache", source)
	}
	if out.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(out.retryAfter))
	}
	w.WriteHeader(out.status)
	w.Write(out.body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	inFlight, _ := s.pool.Load()
	fmt.Fprintf(w, "{\"status\":%q,\"in_flight\":%d}\n", status, inFlight)
}
