package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hfstream"
)

// post sends a /run request body and returns status, body and the cache
// provenance header.
func post(t *testing.T, url, body string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(url+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf, resp.Header.Get("X-Hfserve-Cache")
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var e ErrorEnvelope
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("non-envelope error body %q: %v", body, err)
	}
	return e.Error.Code
}

func TestServeRoundTripMatchesDirectAPI(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := hfstream.Spec{Bench: "adpcmdec", Design: "EXISTING"}
	var direct bytes.Buffer
	if _, err := spec.RunCtx(context.Background(), hfstream.WithMetrics(&direct)); err != nil {
		t.Fatal(err)
	}

	status, cold, src := post(t, ts.URL, `{"bench":"adpcmdec","design":"EXISTING"}`)
	if status != 200 || src != "miss" {
		t.Fatalf("cold: status=%d src=%q, want 200/miss", status, src)
	}
	if !bytes.Equal(cold, direct.Bytes()) {
		t.Fatalf("served body differs from direct API WithMetrics output:\nserve: %s\ndirect: %s", cold, direct.Bytes())
	}

	// Same request again: a cache hit with byte-identical body.
	status, hot, src := post(t, ts.URL, `{"bench":"adpcmdec","design":"EXISTING"}`)
	if status != 200 || src != "hit" {
		t.Fatalf("hot: status=%d src=%q, want 200/hit", status, src)
	}
	if !bytes.Equal(hot, cold) {
		t.Fatal("cache hit body differs from cold body")
	}

	// Canonicalization: field order and explicit zero values must land on
	// the same cache entry.
	status, alias, src := post(t, ts.URL, `{"design":"EXISTING","stages":0,"bench":"adpcmdec"}`)
	if status != 200 || src != "hit" {
		t.Fatalf("alias: status=%d src=%q, want 200/hit", status, src)
	}
	if !bytes.Equal(alias, cold) {
		t.Fatal("aliased request body differs")
	}
	if m := s.Metrics(); m.Runs != 1 {
		t.Fatalf("runs = %d after three identical requests, want 1", m.Runs)
	}
}

func TestServeBadRequests(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
	}{
		{"malformed json", `{`},
		{"unknown field", `{"bench":"wc","design":"EXISTING","turbo":true}`},
		{"unknown bench", `{"bench":"nope","design":"EXISTING"}`},
		{"unknown design", `{"bench":"wc","design":"nope"}`},
		{"missing design", `{"bench":"wc"}`},
		{"stages one", `{"bench":"wc","design":"EXISTING","stages":1}`},
		{"negative stages", `{"bench":"wc","design":"EXISTING","stages":-2}`},
		{"single with design", `{"bench":"wc","design":"EXISTING","single":true}`},
		{"single with stages", `{"bench":"wc","single":true,"stages":3}`},
	}
	for _, tc := range cases {
		status, body, _ := post(t, ts.URL, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, status, body)
			continue
		}
		if code := errCode(t, body); code != codeBadRequest {
			t.Errorf("%s: code %q, want %q", tc.name, code, codeBadRequest)
		}
	}
	if m := s.Metrics(); m.Runs != 0 {
		t.Fatalf("bad requests started %d runs, want 0", m.Runs)
	}

	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run: %d, want 405", resp.StatusCode)
	}
}

// gatedServer overrides the run seam with a job that blocks on a gate,
// so queue occupancy and drain ordering become deterministic. A run
// whose context dies before the gate opens resolves to the typed
// canceled outcome, mirroring execSpec's classification.
func gatedServer(cfg Config) (*Server, chan struct{}) {
	s := New(cfg)
	gate := make(chan struct{})
	s.run = func(ctx context.Context, spec hfstream.Spec, hooks *streamHooks) *outcome {
		s.runs.Add(1)
		select {
		case <-gate:
		case <-ctx.Done():
			if ctx.Err() == context.Canceled {
				s.failures.Add(1)
				return errorOutcome(statusClientClosed, codeCanceled, "gated run canceled", nil)
			}
		}
		return &outcome{status: 200, body: []byte(`{"gated":true}` + "\n"), source: "miss", ok: true}
	}
	return s, gate
}

func TestServeShedsWhenQueueFull(t *testing.T) {
	s, gate := gatedServer(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Distinct specs so coalescing cannot absorb them: one in flight, one
	// queued, the rest shed.
	admitted := make(chan int, 2)
	go func() {
		status, _, _ := post(t, ts.URL, `{"bench":"wc","design":"EXISTING"}`)
		admitted <- status
	}()
	// Wait for the worker to take the first job so the queue slot is free.
	waitFor(t, func() bool { return s.pool.Pending() == 1 && s.pool.QueueLen() == 0 })
	go func() {
		status, _, _ := post(t, ts.URL, `{"bench":"wc","design":"MEMOPTI"}`)
		admitted <- status
	}()
	waitFor(t, func() bool { return s.pool.Pending() == 2 })

	// Worker busy and queue full: further distinct requests shed with the
	// typed 429 immediately, before the gate ever opens.
	for _, d := range []string{"SYNCOPTI", "HEAVYWT"} {
		status, body, _ := post(t, ts.URL, `{"bench":"wc","design":"`+d+`"}`)
		if status != http.StatusTooManyRequests || errCode(t, body) != codeQueueFull {
			t.Fatalf("%s: status=%d body=%s, want typed 429", d, status, body)
		}
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if st := <-admitted; st != 200 {
			t.Fatalf("admitted request finished with %d, want 200", st)
		}
	}
	m := s.Metrics()
	if m.ShedQueueFull != 2 || m.Runs != 2 {
		t.Fatalf("shed=%d runs=%d, want 2/2", m.ShedQueueFull, m.Runs)
	}
}

func TestServeDrainRejectsNewAndFinishesInFlight(t *testing.T) {
	s, gate := gatedServer(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inflight := make(chan struct {
		status int
		body   []byte
	}, 1)
	go func() {
		status, body, _ := post(t, ts.URL, `{"bench":"wc","design":"EXISTING"}`)
		inflight <- struct {
			status int
			body   []byte
		}{status, body}
	}()
	waitFor(t, func() bool { running, _ := s.pool.Load(); return running == 1 })

	s.BeginDrain()

	// healthz flips to draining and new work is rejected with the typed
	// 503, while the in-flight job is still running.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	status, body, _ := post(t, ts.URL, `{"bench":"wc","design":"MEMOPTI"}`)
	if status != http.StatusServiceUnavailable || errCode(t, body) != codeDraining {
		t.Fatalf("new request while draining: status=%d body=%s, want typed 503", status, body)
	}

	// Drain must block on the in-flight job, then complete cleanly.
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while a job was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	r := <-inflight
	if r.status != 200 {
		t.Fatalf("in-flight request finished with %d (%s), want 200", r.status, r.body)
	}
	if m := s.Metrics(); m.RejectedDraining == 0 || !m.Draining {
		t.Fatalf("metrics after drain: rejected=%d draining=%v", m.RejectedDraining, m.Draining)
	}
}

func TestServeDrainDeadlineCancelsJobs(t *testing.T) {
	s, _ := gatedServer(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		status, _, _ := post(t, ts.URL, `{"bench":"wc","design":"EXISTING"}`)
		done <- status
	}()
	waitFor(t, func() bool { running, _ := s.pool.Load(); return running == 1 })

	// The gate never opens: an expired drain budget must cancel the job
	// through its context rather than hang forever.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("canceled job never finished")
	}
}

func TestServeJobTimeoutIsTyped(t *testing.T) {
	// A nanosecond budget cancels the simulation almost immediately; the
	// service must map that to the typed 504, not a generic failure.
	s := New(Config{Workers: 1, JobTimeout: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body, _ := post(t, ts.URL, `{"bench":"bzip2","design":"EXISTING"}`)
	if status != http.StatusGatewayTimeout || errCode(t, body) != codeTimeout {
		t.Fatalf("status=%d body=%s, want 504/timeout", status, body)
	}
	if m := s.Metrics(); m.Failures != 1 {
		t.Fatalf("failures = %d, want 1", m.Failures)
	}

	// Failed runs must not be cached: the same spec under a sane budget
	// succeeds.
	s.cfg.JobTimeout = DefaultJobTimeout
	status, _, src := post(t, ts.URL, `{"bench":"bzip2","design":"EXISTING"}`)
	if status != 200 || src != "miss" {
		t.Fatalf("retry after timeout: status=%d src=%q, want 200/miss", status, src)
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, CacheBytes: 1 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, ts.URL, `{"bench":"adpcmdec","design":"EXISTING"}`)
	post(t, ts.URL, `{"bench":"adpcmdec","design":"EXISTING"}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Requests != 2 || m.Runs != 1 || m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("requests=%d runs=%d hits=%d misses=%d, want 2/1/1/1",
			m.Requests, m.Runs, m.CacheHits, m.CacheMisses)
	}
	if m.Cache.Entries != 1 || m.Cache.Bytes == 0 {
		t.Fatalf("cache entries=%d bytes=%d, want one resident entry", m.Cache.Entries, m.Cache.Bytes)
	}
	if m.Simulated.Cycles == 0 || m.Simulated.Instructions == 0 || m.Simulated.StallCycles == 0 {
		t.Fatalf("simulated totals not aggregated: %+v", m.Simulated)
	}
}

// waitFor polls cond with a deadline; used to sequence concurrent
// requests deterministically without sleeping blind.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(time.Millisecond)
	}
}
