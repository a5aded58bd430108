package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"hfstream"
	"hfstream/internal/exp"
	"hfstream/internal/sim"
)

// figureRefs is the sha256 of every experiment's rendered text, recorded
// with -print-figure-refs. A change that moves any simulated number of a
// figure changes its hash; record the new hashes only when the movement
// is intended (the repository's goldens follow the same rule).
var figureRefs = map[string]string{
	"table1":  "f546cbf04a3cbedbeb94ca83d10e3c405df424bd4cc1c24d49da4bc68316856b",
	"table2":  "906b9310fb9e10367f6151ad4e1df287a590e41f9be902adc7641a47f9fe5939",
	"fig3":    "9b4bd25f701509c1bbf13d3185b96134fe581dd7a024e37676410addc1ae66e5",
	"fig6":    "9461ff422147e4f71612fe3049cc09d8ab4595748323dd13d0c4628857473e50",
	"fig7":    "7f6aeb46b17fc66dab623b64228f18f9a8f9d4eab721a3afb98167dd87a45794",
	"fig8":    "7bd8bd4200dbe9014a896f35715a7cdb85128eb1142ec179774d39cb141dd304",
	"fig9":    "277142efc2cd592983b456e64595416e9848c04815e54c8df2d01009661e6110",
	"fig10":   "67dc78a44cbdea8d891753f0559d486d1c552a428a78961339c817bd376a87b0",
	"fig11":   "93aec2778dd3c2ac73bb682f63bebbf954327a6a9f2df32db8986e410efda2d8",
	"fig12":   "0c9204e9199b504e1e5c77fcd1fb3e63a58a17c38dd408abbbbdf74848e372d9",
	"scaling": "bd44f7bf86c1d3e759f3fc718306c9a046660a85f9eaef978ab31ac3040c111b",
}

func printFigureRefs() error {
	for _, name := range hfstream.ExperimentNames() {
		text, err := hfstream.RunExperimentCtx(context.Background(), name)
		if err != nil {
			return err
		}
		sum := sha256.Sum256([]byte(text))
		fmt.Printf("%q: %q,\n", name, hex.EncodeToString(sum[:]))
	}
	return nil
}

// jobRec is one simulation the experiment pool reported finished.
type jobRec struct {
	job  exp.Job
	res  *sim.Result
	err  error
	wall time.Duration
}

// jobLog collects the pool's per-job completions (exp.SetProgress) and,
// in traced passes, records each job as a span under its experiment.
type jobLog struct {
	mu     sync.Mutex
	jobs   []jobRec
	tr     *tracer
	parent int
	group  string
}

func (l *jobLog) record(_, _ int, jr exp.JobResult) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jobs = append(l.jobs, jobRec{job: jr.Job, res: jr.Res, err: jr.Err, wall: jr.Wall})
	l.tr.add("exp.job", l.group, l.parent, now.Add(-jr.Wall), now)
}

func (l *jobLog) experiment(tr *tracer, parent int, group string) {
	l.mu.Lock()
	l.tr, l.parent, l.group = tr, parent, group
	l.mu.Unlock()
}

func (l *jobLog) take() []jobRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.jobs
	l.jobs = nil
	return out
}

// figPass is one pass over every experiment.
type figPass struct {
	wall    time.Duration
	expWall map[string]time.Duration
	jobs    []jobRec
	counts  simCounts
	lat     latencyStats
	jobsOK  int
	busy    time.Duration
	maxJob  time.Duration
}

func figuresPass(r *run, log *jobLog, tr *tracer) figPass {
	p := figPass{expWall: map[string]time.Duration{}}
	texts := map[string]string{}
	errs := map[string]error{}
	start := time.Now()
	for _, name := range hfstream.ExperimentNames() {
		id := tr.begin("exp.experiment", name, 0)
		log.experiment(tr, id, name)
		t := time.Now()
		texts[name], errs[name] = hfstream.RunExperimentCtx(context.Background(), name)
		p.expWall[name] = time.Since(t)
		tr.end(id)
	}
	p.wall = time.Since(start)
	log.experiment(nil, 0, "")

	for _, name := range hfstream.ExperimentNames() {
		sum := sha256.Sum256([]byte(texts[name]))
		err := errs[name]
		if got := hex.EncodeToString(sum[:]); err == nil && got != figureRefs[name] {
			err = fmt.Errorf("rendered text sha256 %s, recorded %s", got, figureRefs[name])
		}
		r.tally(name, err)
	}
	p.jobs = log.take()
	lat := make([]time.Duration, 0, len(p.jobs))
	for _, j := range p.jobs {
		lat = append(lat, j.wall)
		p.busy += j.wall
		p.maxJob = max(p.maxJob, j.wall)
		if j.err == nil {
			p.jobsOK++
			p.counts.add(j.res)
		}
	}
	p.lat = summarize(lat)
	return p
}

// runPaperFigures regenerates every table and figure (hfstream's
// ExperimentNames through RunExperimentCtx) on an nproc-wide experiment
// pool, pass after pass. The inputs are the paper's fixed experiment
// definitions; the seed does not change them.
func runPaperFigures(r *run, e *env) {
	log := &jobLog{}
	exp.SetProgress(log.record)
	defer exp.SetProgress(nil)

	untracedFor, tracedFor := r.phases()
	var passes, traced []figPass
	repeat(untracedFor, func() {
		p := figuresPass(r, log, nil)
		if len(passes) > 0 {
			passes[len(passes)-1].jobs = nil // keep the last pass's results only
		}
		passes = append(passes, p)
	})
	var tr *tracer
	if r.trace {
		tr = newTracer()
		repeat(tracedFor, func() {
			p := figuresPass(r, log, tr)
			p.jobs = nil
			traced = append(traced, p)
		})
	}
	all := append(append([]figPass(nil), passes...), traced...)
	for i := 1; i < len(all); i++ {
		if all[i].counts != all[0].counts {
			r.problem("exact sim counts moved between passes of the same experiments: %+v vs %+v", all[0].counts, all[i].counts)
		}
	}
	r.ledger.check(r, "paper_figures/sim_counts", all[0].counts)

	walls := func(ps []figPass) (wall, p50 []float64) {
		for _, p := range ps {
			wall = append(wall, p.wall.Seconds())
			p50 = append(p50, ms(p.lat.p50))
		}
		return wall, p50
	}
	if !r.trace {
		var rps []float64
		var lats []latencyStats
		for _, p := range passes {
			rps = append(rps, float64(p.jobsOK)/p.wall.Seconds())
			lats = append(lats, p.lat)
		}
		w, _ := walls(passes)
		r.set("wall_s", "s", median(w))
		r.set("rps", "1/s", median(rps))
		r.setLatency(lats)
		return
	}

	last := passes[len(passes)-1]
	var items []composeItem
	for _, j := range last.jobs {
		if j.err != nil {
			continue
		}
		name := "SINGLE"
		if !j.job.Single {
			name = j.job.Config.Name()
		}
		m := j.res.Metrics()
		m.Benchmark, m.Design = j.job.Bench, name
		want, err := sim.MetricsJSON(m)
		if err != nil {
			r.problem("encode %s: %v", j.job.Name(), err)
			continue
		}
		items = append(items, composeItem{label: j.job.Name(), bench: j.job.Bench, designName: name,
			cfg: j.job.Config, single: j.job.Single, sample: j.job.SampleInterval, want: want})
	}
	lt := composeAll(r, tr, items)
	if lt.counts != last.counts {
		r.problem("composed sim counts differ from the experiment pool's: %+v vs %+v", lt.counts, last.counts)
	}

	es := &expSummary{experimentS: map[string]float64{}}
	var p50, maxes, busy []float64
	for _, p := range passes {
		p50 = append(p50, ms(p.lat.p50))
		maxes = append(maxes, ms(p.maxJob))
		busy = append(busy, float64(p.busy)/(float64(p.wall)*float64(r.nproc)))
	}
	es.jobs = float64(len(last.jobs))
	es.jobP50, es.jobMax, es.workerBusy = median(p50), median(maxes), median(busy)
	for _, name := range hfstream.ExperimentNames() {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p.expWall[name].Seconds())
		}
		es.experimentS[name] = median(xs)
	}

	uw, up := walls(passes)
	tw, tp := walls(traced)
	r.setLayers(layerValues{
		lt: lt, tr: tr, specs: specsOf(dualCoreCells()), benches: benchNames(), oracleWarm: e.oracleWarm, exp: es,
		untraced: e2e{wallS: median(uw), p50Ms: median(up)},
		traced:   e2e{wallS: median(tw), p50Ms: median(tp)},
	})
}
