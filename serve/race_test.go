package serve

// Race-mode battery: hammer the service with concurrent identical and
// distinct requests (run under -race via `make race`). The invariants
// under test are the serving contract: exactly one underlying simulation
// per unique request key, byte-identical bodies however a response was
// produced (cold, cached, coalesced), and a clean drain while requests
// are still in flight.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hfstream"
)

func TestRaceIdenticalRequestsCoalesceToOneRun(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 32})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 16
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i], _ = post(t, ts.URL, `{"bench":"adpcmdec","design":"SYNCOPTI"}`)
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != 200 {
			t.Fatalf("request %d: status %d (%s)", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	m := s.Metrics()
	if m.Runs != 1 {
		t.Fatalf("%d underlying runs for %d identical requests, want exactly 1", m.Runs, n)
	}
	// Every non-leader was either coalesced onto the flight or served
	// from the cache after it completed; none were dropped.
	if m.CacheHits+m.Coalesced != n-1 {
		t.Fatalf("hits(%d) + coalesced(%d) != %d", m.CacheHits, m.Coalesced, n-1)
	}
}

func TestRaceDistinctRequestsEachRunOnce(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	designs := hfstream.Designs()
	const dup = 3 // concurrent duplicates per design
	type res struct {
		design string
		status int
		body   []byte
	}
	results := make(chan res, len(designs)*dup)
	var wg sync.WaitGroup
	for _, d := range designs {
		for k := 0; k < dup; k++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				status, body, _ := post(t, ts.URL, `{"bench":"adpcmdec","design":"`+name+`"}`)
				results <- res{name, status, body}
			}(d.Name())
		}
	}
	wg.Wait()
	close(results)

	byDesign := map[string][][]byte{}
	for r := range results {
		if r.status != 200 {
			t.Fatalf("%s: status %d (%s)", r.design, r.status, r.body)
		}
		byDesign[r.design] = append(byDesign[r.design], r.body)
	}
	var distinct [][]byte
	for name, bodies := range byDesign {
		for _, b := range bodies[1:] {
			if !bytes.Equal(b, bodies[0]) {
				t.Fatalf("%s: duplicate requests returned different bodies", name)
			}
		}
		distinct = append(distinct, bodies[0])
	}
	for i := range distinct {
		for j := i + 1; j < len(distinct); j++ {
			if bytes.Equal(distinct[i], distinct[j]) {
				t.Fatal("two different designs served identical bodies")
			}
		}
	}
	if m := s.Metrics(); m.Runs != uint64(len(designs)) {
		t.Fatalf("%d runs for %d unique specs, want one each", m.Runs, len(designs))
	}
}

func TestRaceDrainMidFlight(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Real simulations in flight while Drain lands: everything admitted
	// must finish with a well-formed 200, everything after the drain
	// begins must get the typed 503, and Drain itself must return clean.
	specs := []string{
		`{"bench":"adpcmdec","design":"EXISTING"}`,
		`{"bench":"adpcmdec","design":"MEMOPTI"}`,
		`{"bench":"bzip2","design":"SYNCOPTI"}`,
		`{"bench":"bzip2","design":"HEAVYWT"}`,
	}
	type res struct {
		status int
		body   []byte
	}
	results := make(chan res, len(specs))
	var wg sync.WaitGroup
	for _, spec := range specs {
		wg.Add(1)
		go func(spec string) {
			defer wg.Done()
			status, body, _ := post(t, ts.URL, spec)
			results <- res{status, body}
		}(spec)
	}
	// Wait on the monotonic run counter, not transient pool state: warm
	// simulations are fast enough to start and finish between polls.
	waitFor(t, func() bool { return s.runs.Load() > 0 })
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	close(results)

	admitted := 0
	for r := range results {
		switch r.status {
		case 200:
			admitted++
			if !bytes.Contains(r.body, []byte(`"cycles"`)) {
				t.Fatalf("drained 200 body is not a metrics snapshot: %s", r.body)
			}
		case 503:
			if errCode(t, r.body) != codeDraining {
				t.Fatalf("rejected request carries code %q, want %q", errCode(t, r.body), codeDraining)
			}
		default:
			t.Fatalf("unexpected status %d (%s)", r.status, r.body)
		}
	}
	if admitted == 0 {
		t.Fatal("no request was admitted before the drain")
	}
	// After a drain everything is rejected.
	status, body, _ := post(t, ts.URL, `{"bench":"wc","design":"EXISTING"}`)
	if status != 503 || errCode(t, body) != codeDraining {
		t.Fatalf("post-drain request: status=%d body=%s, want typed 503", status, body)
	}
}

// TestRaceQueueGaugesStayInBounds saturates a 1-worker, depth-2 server
// with distinct jobs while polling /metrics and /healthz. Every read
// must report 0 <= in_flight <= workers and queued <= queue_depth: the
// gauges come from one pool snapshot, so a task pickup between two
// separate reads can no longer over-report in_flight.
func TestRaceQueueGaugesStayInBounds(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	// Runs block on gate until the polling is done, so the one worker
	// stays busy and the queue stays full however the scheduler
	// interleaves the clients: the fourth client's requests shed.
	gate := make(chan struct{})
	started := make(chan struct{})
	var startOnce sync.Once
	s.run = func(ctx context.Context, spec hfstream.Spec, hooks *streamHooks) *outcome {
		s.runs.Add(1)
		startOnce.Do(func() { close(started) })
		<-gate
		return &outcome{status: 200, body: []byte("{}\n"), source: "miss", ok: true}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Distinct hop counts give distinct specs, so neither the cache nor
	// coalescing absorbs the load; most requests shed with 429.
	const clients = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for h := c + 1; ; h += clients {
				select {
				case <-stop:
					return
				default:
				}
				body := fmt.Sprintf(`{"bench":"wc","design":"NETQUEUE_%dhop"}`, h)
				resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(c)
	}
	getJSON := func(path string, v any) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		close(stop)
		close(gate)
		wg.Wait()
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no run started within 10s")
	}
	for i := 0; i < 300; i++ {
		var m Metrics
		getJSON("/metrics", &m)
		if m.InFlight < 0 || m.InFlight > m.Workers || m.Queued < 0 || m.Queued > m.QueueDepth {
			t.Fatalf("/metrics read %d: in_flight=%d queued=%d, want in [0,%d] and [0,%d]",
				i, m.InFlight, m.Queued, m.Workers, m.QueueDepth)
		}
		var h struct {
			InFlight int `json:"in_flight"`
		}
		getJSON("/healthz", &h)
		if h.InFlight < 0 || h.InFlight > m.Workers {
			t.Fatalf("/healthz read %d: in_flight=%d, want in [0,%d]", i, h.InFlight, m.Workers)
		}
	}
	if m := s.Metrics(); m.Runs == 0 || m.ShedQueueFull == 0 {
		t.Fatalf("runs=%d shed=%d: the server was never saturated", m.Runs, m.ShedQueueFull)
	}
}
