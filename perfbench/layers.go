package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"hfstream"
	"hfstream/internal/design"
	"hfstream/internal/dswp"
	"hfstream/internal/exp"
	"hfstream/internal/isa"
	"hfstream/internal/lower"
	"hfstream/internal/mem"
	"hfstream/internal/memsys"
	"hfstream/internal/sim"
	"hfstream/internal/workloads"
	"hfstream/serve"
)

// simCounts are exact simulated-work counters, summed over a workload's
// runs. They depend only on the simulated machine, so a change that only
// makes the host faster must leave every one of them unchanged.
type simCounts struct {
	Cycles, Instructions, StallCycles uint64
	BusGrants, BusArbWait             uint64
	L2Misses, RecircRetries           uint64
	SAFullStalls, SAEmptyStalls       uint64
}

func (c *simCounts) add(res *sim.Result) {
	c.Cycles += res.Cycles
	for i := range res.Issued {
		c.Instructions += res.Issued[i]
	}
	for i := range res.CoreCycles {
		c.StallCycles += res.CoreCycles[i] - res.IssueCycles[i]
	}
	c.BusGrants += res.BusGrants
	c.BusArbWait += res.BusArbWait
	for _, v := range res.L2Misses {
		c.L2Misses += v
	}
	for _, v := range res.RecircRetries {
		c.RecircRetries += v
	}
	c.SAFullStalls += res.SAFullStalls
	c.SAEmptyStalls += res.SAEmptyStalls
}

// composeItem is one cell the traced run rebuilds layer by layer, with
// the metrics bytes its untraced run produced.
type composeItem struct {
	label      string
	bench      string
	designName string // the metrics annotation: design name or "SINGLE"
	cfg        design.Config
	single     bool
	sample     uint64
	want       []byte
}

// layerTotals accumulates the per-layer costs of one composed pass over
// a workload's cells.
type layerTotals struct {
	partitionChain, partitionParallel time.Duration
	pipelined, lower, check           []time.Duration
	cellTime, partitionTime           time.Duration
	simRun                            time.Duration
	runs                              int
	mallocs, bytes                    uint64
	counts                            simCounts
}

// compose runs one cell the way the experiment harness does, one layer
// call at a time: partition (DSWP chain, parallel stage, or the dual-core
// Pipelined), lower for software-queue designs, sim.Run, CheckOutput. It
// returns the run's metrics bytes, annotated like the public API's.
func compose(tr *tracer, it composeItem, lt *layerTotals) ([]byte, error) {
	b, err := workloads.ByName(it.bench)
	if err != nil {
		return nil, err
	}
	cellStart := time.Now()
	cid := tr.begin("cell", it.label, 0)
	defer func() {
		tr.end(cid)
		lt.cellTime += time.Since(cellStart)
	}()
	timed := func(name string, f func() error) (time.Duration, error) {
		id := tr.begin(name, it.label, cid)
		start := time.Now()
		err := f()
		d := time.Since(start)
		tr.end(id)
		return d, err
	}

	cfg := it.cfg
	var progs []*isa.Program
	var routes []dswp.QueueRoute
	var d time.Duration
	switch {
	case it.single:
		cfg = design.ExistingConfig()
		var p *isa.Program
		if p, err = b.Single(); err == nil {
			progs = []*isa.Program{p}
		}
	case cfg.Parallel:
		d, err = timed("build.partition", func() error {
			pr, err := dswp.PartitionParallel(b.Loop, cfg.Cores-1)
			if err == nil {
				progs, routes = pr.Threads, pr.Routes
			}
			return err
		})
		lt.partitionParallel += d
		lt.partitionTime += d
	case cfg.Cores >= 3:
		d, err = timed("build.partition", func() error {
			pr, err := dswp.PartitionN(b.Loop, cfg.Cores)
			if err == nil {
				progs, routes = pr.Threads, pr.Routes
			}
			return err
		})
		lt.partitionChain += d
		lt.partitionTime += d
	default:
		d, err = timed("build.partition", func() error {
			threads, _, err := b.Pipelined()
			progs = threads[:]
			return err
		})
		lt.pipelined = append(lt.pipelined, d)
		lt.partitionTime += d
	}
	if err != nil {
		return nil, err
	}
	if !it.single && cfg.SoftwareQueues() {
		for i, p := range progs {
			d, err := timed("build.lower", func() error {
				lp, err := lower.Lower(p, cfg.Layout())
				progs[i] = lp
				return err
			})
			if err != nil {
				return nil, err
			}
			lt.lower = append(lt.lower, d)
		}
	}

	img := mem.New()
	b.Setup(img)
	simCfg := cfg.SimConfig()
	simCfg.Preload = b.InputRegions
	simCfg.SampleInterval = it.sample
	for _, rt := range routes {
		simCfg.Mem.QueueRoutes = append(simCfg.Mem.QueueRoutes,
			memsys.QueueRoute{Producer: rt.Producer, Consumer: rt.Consumer})
	}
	threads := make([]sim.Thread, len(progs))
	for i, p := range progs {
		threads[i] = sim.Thread{Prog: p}
	}
	var before, after runtime.MemStats
	var res *sim.Result
	runtime.ReadMemStats(&before)
	d, err = timed("sim.run", func() error {
		var err error
		res, err = sim.Run(simCfg, img, threads)
		return err
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	lt.simRun += d
	lt.runs++
	lt.mallocs += after.Mallocs - before.Mallocs
	lt.bytes += after.TotalAlloc - before.TotalAlloc
	lt.counts.add(res)

	d, err = timed("exp.check", func() error { return exp.CheckOutput(b, img) })
	if err != nil {
		return nil, err
	}
	lt.check = append(lt.check, d)

	m := res.Metrics()
	m.Benchmark = it.bench
	m.Design = it.designName
	return sim.MetricsJSON(m)
}

// composeAll composes every item twice: once traced, giving the layer
// totals, and once untraced, whose exact counts must equal the first
// pass's. Each composed result must equal the item's untraced bytes.
func composeAll(r *run, tr *tracer, items []composeItem) *layerTotals {
	var first, second layerTotals
	for pass, lt := range []*layerTotals{&first, &second} {
		t := tr
		if pass == 1 {
			t = nil
		}
		for _, it := range items {
			got, err := compose(t, it, lt)
			switch {
			case err != nil:
				r.problem("composed run of %s: %v", it.label, err)
			case !bytes.Equal(got, it.want):
				r.problem("composed run of %s differs from its untraced result", it.label)
			}
		}
	}
	if first.counts != second.counts {
		r.problem("exact sim counts moved between two composed passes: %+v vs %+v", first.counts, second.counts)
	}
	return &first
}

// cellItems turns served cells into compose items, with the direct-API
// bytes as the untraced result.
func cellItems(r *run, cells []cell, refs map[string]ref) []composeItem {
	var out []composeItem
	for _, c := range cells {
		if err := checkDesign(c); err != nil {
			r.problem("%s: %v", c.label(), err)
			continue
		}
		out = append(out, composeItem{label: c.label(), bench: c.spec.Bench, designName: c.cfg.Name(),
			cfg: c.cfg, want: refs[c.label()].body})
	}
	return out
}

// e2e is the pair of end-to-end figures the traced run measures both with
// and without tracing.
type e2e struct {
	wallS, p50Ms float64
}

// expSummary is the experiment pool's view of paper_figures.
type expSummary struct {
	jobs           float64
	jobP50, jobMax float64 // ms
	experimentS    map[string]float64
	workerBusy     float64
}

// layerValues is everything the traced run reports.
type layerValues struct {
	lt         *layerTotals
	tr         *tracer
	specs      []hfstream.Spec // Spec.Key probe inputs
	benches    []string        // registry probe inputs
	oracleWarm time.Duration

	// Serving workloads only.
	srv        *server // holds hitCells cached, for the handler probe
	hitCells   []cell
	serveM     *serve.Metrics
	overheadMs float64

	// paper_figures only.
	exp *expSummary

	untraced, traced e2e
}

// setLayers prints every per-layer metric. Metrics of a layer the
// workload does not use read 0, except the serve miss-path ones, which
// only ncore_cold prints.
func (r *run) setLayers(lv layerValues) {
	lt := lv.lt
	r.set("build.partition_chain_ms", "ms", ms(lt.partitionChain))
	r.set("build.partition_parallel_ms", "ms", ms(lt.partitionParallel))
	r.set("build.pipelined_us", "us", us(medianDur(lt.pipelined)))
	r.set("build.lower_us", "us", us(medianDur(lt.lower)))
	regUs, regAllocs := registryProbe(lv.benches)
	r.set("build.registry_us", "us", us(regUs))
	r.set("build.registry_allocs", "count", regAllocs)
	keyUs, keyAllocs := keyProbe(r, lv.specs)
	r.set("spec.key_us", "us", us(keyUs))
	r.set("spec.key_allocs", "count", keyAllocs)
	r.set("oracle.warm_ms", "ms", ms(lv.oracleWarm))

	var nsPerCycle, mcps, allocs, bytesPer float64
	if lt.counts.Cycles > 0 {
		nsPerCycle = float64(lt.simRun.Nanoseconds()) / float64(lt.counts.Cycles)
		mcps = float64(lt.counts.Cycles) / lt.simRun.Seconds() / 1e6
	}
	if lt.runs > 0 {
		allocs = float64(lt.mallocs) / float64(lt.runs)
		bytesPer = float64(lt.bytes) / float64(lt.runs)
	}
	r.set("sim.run_ms", "ms", ms(lt.simRun))
	r.set("sim.ns_per_cycle", "ns", nsPerCycle)
	r.set("sim.mcycles_per_s", "Mcycles/s", mcps)
	r.set("sim.allocs_per_run", "count", allocs)
	r.set("sim.bytes_per_run", "B", bytesPer)
	c := lt.counts
	r.set("sim.cycles", "count", float64(c.Cycles))
	r.set("sim.instructions", "count", float64(c.Instructions))
	r.set("core.stall_cycles", "count", float64(c.StallCycles))
	r.set("bus.grants", "count", float64(c.BusGrants))
	r.set("bus.arb_wait_cycles", "count", float64(c.BusArbWait))
	r.set("memsys.l2_misses", "count", float64(c.L2Misses))
	r.set("memsys.recirc_retries", "count", float64(c.RecircRetries))
	r.set("queue.sa_full_stalls", "count", float64(c.SAFullStalls))
	r.set("queue.sa_empty_stalls", "count", float64(c.SAEmptyStalls))
	r.set("exp.check_us", "us", us(medianDur(lt.check)))

	es := lv.exp
	if es == nil {
		es = &expSummary{}
	}
	r.set("exp.jobs", "count", es.jobs)
	r.set("exp.job_p50_ms", "ms", es.jobP50)
	r.set("exp.job_max_ms", "ms", es.jobMax)
	r.set("exp.worker_busy", "ratio", es.workerBusy)
	for _, name := range hfstream.ExperimentNames() {
		r.set("exp.experiment_s."+name, "s", es.experimentS[name])
	}

	var handlerUs, hitRatio, runsPerMiss, coalesced, shed float64
	if lv.srv != nil {
		handlerUs = us(handlerProbe(r, lv.srv, lv.hitCells))
	}
	if m := lv.serveM; m != nil {
		if m.CacheHits+m.CacheMisses > 0 {
			hitRatio = float64(m.CacheHits) / float64(m.CacheHits+m.CacheMisses)
		}
		if m.CacheMisses > 0 {
			runsPerMiss = float64(m.Runs-m.Failures) / float64(m.CacheMisses)
		}
		coalesced, shed = float64(m.Coalesced), float64(m.ShedQueueFull)
	}
	r.set("serve.handler_us", "us", handlerUs)
	r.set("serve.net_us", "us", us(medianDur(lv.tr.netTimes("client.run", "serve.handler"))))
	r.set("serve.hit_ratio", "ratio", hitRatio)
	r.set("serve.runs_per_miss", "ratio", runsPerMiss)
	if r.workload == "ncore_cold" {
		// Only the miss path has these to show. hot_hits requires both
		// counters to stay 0 (a coalesced or shed request fails the run),
		// and paper_figures does not serve.
		r.set("serve.overhead_ms", "ms", lv.overheadMs)
		r.set("serve.coalesced", "count", coalesced)
		r.set("serve.shed", "count", shed)
	}
	r.set("client.run_us", "us", us(medianDur(lv.tr.durations("client.run"))))

	var partShare, keyShare float64
	if lt.cellTime > 0 {
		partShare = float64(lt.partitionTime) / float64(lt.cellTime)
	}
	if lv.serveM != nil && lv.untraced.p50Ms > 0 {
		keyShare = us(keyUs) / (lv.untraced.p50Ms * 1000)
	}
	r.set("share.partition", "ratio", partShare)
	r.set("share.spec_key", "ratio", keyShare)

	self := lv.tr.selfTimes()
	for _, name := range layerNames {
		r.set("self."+name+"_ms", "ms", ms(self[name]))
	}
	r.set("trace.overhead_wall_s", "s", lv.traced.wallS-lv.untraced.wallS)
	r.set("trace.overhead_p50_ms", "ms", lv.traced.p50Ms-lv.untraced.p50Ms)

	path, err := lv.tr.write(r.out, r.workload, r.seed)
	if err != nil {
		r.problem("write trace: %v", err)
		return
	}
	fmt.Printf("trace: %d spans written to %s\n", len(lv.tr.spans), path)
}

// registryProbe times workloads.ByName, the registry lookup every
// Spec.Normalize and every experiment job makes, per call.
func registryProbe(benches []string) (time.Duration, float64) {
	const n = 200
	lat := make([]time.Duration, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range lat {
		start := time.Now()
		_, _ = workloads.ByName(benches[i%len(benches)]) // names come from the registry itself
		lat[i] = time.Since(start)
	}
	runtime.ReadMemStats(&after)
	return medianDur(lat), float64(after.Mallocs-before.Mallocs) / n
}

// keyProbe times Spec.Key, the content address every request computes.
func keyProbe(r *run, specs []hfstream.Spec) (time.Duration, float64) {
	const n = 2000
	lat := make([]time.Duration, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range lat {
		start := time.Now()
		_, err := specs[i%len(specs)].Key()
		lat[i] = time.Since(start)
		if err != nil {
			r.problem("Spec.Key(%+v): %v", specs[i%len(specs)], err)
			break
		}
	}
	runtime.ReadMemStats(&after)
	return medianDur(lat), float64(after.Mallocs-before.Mallocs) / n
}

// handlerProbe times the server's handler on cache hits, called with a
// recorder so no network is involved.
func handlerProbe(r *run, srv *server, cells []cell) time.Duration {
	const n = 2000
	h := srv.svc.Handler()
	lat := make([]time.Duration, n)
	for i := range lat {
		c := cells[i%len(cells)]
		body, err := json.Marshal(c.spec)
		if err != nil {
			r.problem("encode %s: %v", c.label(), err)
			return 0
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		lat[i] = time.Since(start)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Hfserve-Cache") != "hit" {
			r.problem("handler probe %s: status %d, cache %q", c.label(), rec.Code, rec.Header().Get("X-Hfserve-Cache"))
			return 0
		}
	}
	return medianDur(lat)
}

func medianDur(ds []time.Duration) time.Duration { return summarize(ds).p50 }
