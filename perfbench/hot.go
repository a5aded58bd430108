package main

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

const (
	// hotBatch is how many requests one hot_hits client sends per batch;
	// latency percentiles are taken per batch, so the tail is p90 (ten
	// samples beyond it) however long the run. On a shared VM a few
	// percent of ~0.1 ms requests take several times longer whenever the
	// host is busy; that share moves from run to run, so a p95 or p99 tail
	// (and the median of longer batches) follows the host more than the
	// program. Short batches and a p90 tail keep run-to-run spread close
	// to the median's.
	hotBatch = 100
	// hotZipfS is the Zipf exponent of the cell draws, the repository's
	// own serving load model: cmd/hfload's default -skew, recorded as
	// zipf_skew in BENCH_SERVE.json. A few cells take most requests, as in
	// a cache in front of repeated sweeps.
	hotZipfS = 1.2
	// hotWindow is the window rps counts successful requests in. rps is
	// the median over the phase's whole windows, in which every client is
	// sending, so a host stall of a few seconds costs a few windows
	// instead of a share of the whole count.
	hotWindow = time.Second
)

// hotStats is one hot_hits phase.
type hotStats struct {
	batches    []latencyStats
	batchWalls []float64
	attempted  int
	ok         int
	errs       []string
	// windowOK counts successful requests per hotWindow since the
	// phase's start.
	windowOK []int
}

// hotPhase runs nproc closed-loop clients against the pre-warmed server
// for d, each drawing cells from its own seeded Zipf stream over a seeded
// permutation of the cells. Every response must be a cache hit whose body
// equals the direct-API bytes.
func hotPhase(r *run, srv *server, tr *tracer, cells []cell, perm []int, refs map[string]ref, d time.Duration, phase int) hotStats {
	srv.tracer.Store(tr)
	defer srv.tracer.Store(nil)
	per := make([]hotStats, r.nproc)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &per[c]
			rng := rand.New(rand.NewSource(r.seed*1_000_003 + int64(phase*r.nproc+c)))
			z := rand.NewZipf(rng, hotZipfS, 1, uint64(len(cells)-1))
			lat := make([]time.Duration, hotBatch)
			for time.Now().Before(deadline) {
				bStart := time.Now()
				ok := 0
				for i := range lat {
					sv := srv.do(context.Background(), tr, cells[perm[z.Uint64()]])
					lat[i] = sv.lat
					st.attempted++
					if err := verify(sv, refs, "hit"); err != nil {
						if len(st.errs) < 10 {
							st.errs = append(st.errs, sv.c.label()+": "+err.Error())
						}
					} else {
						ok++
						w := int(time.Since(start) / hotWindow)
						for len(st.windowOK) <= w {
							st.windowOK = append(st.windowOK, 0)
						}
						st.windowOK[w]++
					}
				}
				wall := time.Since(bStart).Seconds()
				st.ok += ok
				st.batchWalls = append(st.batchWalls, wall)
				st.batches = append(st.batches, summarize(lat))
			}
		}()
	}
	wg.Wait()
	// Only windows that end before the deadline count: in them every
	// client was sending.
	out := hotStats{windowOK: make([]int, int(d/hotWindow))}
	for _, st := range per {
		for w := range min(len(out.windowOK), len(st.windowOK)) {
			out.windowOK[w] += st.windowOK[w]
		}
		out.batches = append(out.batches, st.batches...)
		out.batchWalls = append(out.batchWalls, st.batchWalls...)
		out.attempted += st.attempted
		out.ok += st.ok
		out.errs = append(out.errs, st.errs...)
	}
	r.attempted += out.attempted
	r.failed += out.attempted - out.ok
	for _, e := range out.errs {
		r.logFailure(e)
	}
	return out
}

func (h hotStats) e2e() e2e {
	var p50 []float64
	for _, b := range h.batches {
		p50 = append(p50, ms(b.p50))
	}
	return e2e{wallS: median(h.batchWalls), p50Ms: median(p50)}
}

// runHotHits measures cache hits on the server set-up pre-warmed with the
// 63 dual-core cells.
func runHotHits(r *run, e *env) {
	cells := dualCoreCells()
	refs := directRefs(r, cells)
	for _, sv := range e.prewarm {
		r.tally(sv.c.label(), verify(sv, refs, "miss"))
	}

	perm := rand.New(rand.NewSource(r.seed)).Perm(len(cells))

	untracedFor, tracedFor := r.phases()
	un := hotPhase(r, e.srv, nil, cells, perm, refs, untracedFor, 0)
	var traced hotStats
	var tr *tracer
	if r.trace {
		tr = newTracer()
		traced = hotPhase(r, e.srv, tr, cells, perm, refs, tracedFor, 1)
	}

	m := e.srv.svc.Metrics()
	n := uint64(len(cells))
	if m.Runs != n || m.CacheMisses != n || m.Failures != 0 || m.Coalesced != 0 ||
		m.ShedQueueFull != 0 || m.CacheHits != m.Requests-n {
		r.problem("serve counters after hot_hits: runs %d, misses %d, failures %d, coalesced %d, shed %d, hits %d of %d requests; want %d runs and misses, all else hits",
			m.Runs, m.CacheMisses, m.Failures, m.Coalesced, m.ShedQueueFull, m.CacheHits, m.Requests, n)
	}
	r.ledger.checkBodies(r, refs)
	r.ledger.check(r, "hot_hits/prewarm_sim_counts", m.Simulated)
	if !r.trace {
		// wall_s is the workload's fixed batch: the median time one client
		// takes for hotBatch requests.
		r.set("wall_s", "s", median(un.batchWalls))
		var rps []float64
		for _, n := range un.windowOK {
			rps = append(rps, float64(n)/hotWindow.Seconds())
		}
		r.set("rps", "1/s", median(rps))
		r.setLatency(un.batches)
		return
	}

	lt := composeAll(r, tr, cellItems(r, cells, refs))
	if lt.counts.Cycles != m.Simulated.Cycles || lt.counts.Instructions != m.Simulated.Instructions ||
		lt.counts.StallCycles != m.Simulated.StallCycles {
		r.problem("composed sim counts (%d cycles, %d instrs, %d stalls) differ from the served ones (%+v)",
			lt.counts.Cycles, lt.counts.Instructions, lt.counts.StallCycles, m.Simulated)
	}
	r.setLayers(layerValues{
		lt: lt, tr: tr, specs: specsOf(cells), benches: benchNames(), oracleWarm: e.oracleWarm,
		srv: e.srv, hitCells: cells, serveM: &m,
		untraced: un.e2e(), traced: traced.e2e(),
	})
}
