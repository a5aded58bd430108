package exp

import (
	"context"
	"fmt"

	"hfstream/internal/design"
	"hfstream/internal/sim"
	"hfstream/internal/stats"
	"hfstream/internal/workloads"
)

// BreakdownBar is one normalized stacked bar: Total is execution time
// relative to the row's baseline design, split into the six machine
// components (paper Figures 7, 10, 11, 12).
type BreakdownBar struct {
	Design string
	Total  float64
	Parts  [stats.NumBuckets]float64
}

// BreakdownRow is one benchmark's bars.
type BreakdownRow struct {
	Benchmark string
	Bars      []BreakdownBar
}

// BreakdownFigure is a full stacked-bar figure plus the geomean of each
// design's normalized totals.
type BreakdownFigure struct {
	Title   string
	Core    int // 0 = producer thread, 1 = consumer thread
	Rows    []BreakdownRow
	Geomean []BreakdownBar
}

// breakdownFigure runs every benchmark on each config (fanned across the
// worker pool) and builds the coreIdx thread's figure from the grid.
func breakdownFigure(ctx context.Context, title string, configs []design.Config, coreIdx int) (*BreakdownFigure, error) {
	grid, err := runMatrix(ctx, configs)
	if err != nil {
		return nil, err
	}
	return breakdownFromGrid(grid, title, configs, coreIdx), nil
}

// breakdownFromGrid builds the coreIdx thread's figure from a runMatrix
// grid over configs, normalizing each bar to the first config's (the
// baseline's) execution time. It only reads the grid, so one grid can
// feed several figures.
func breakdownFromGrid(grid [][]*sim.Result, title string, configs []design.Config, coreIdx int) *BreakdownFigure {
	fig := &BreakdownFigure{Title: title, Core: coreIdx}
	sums := make([][]float64, len(configs))
	for bi, b := range workloads.All() {
		row := BreakdownRow{Benchmark: b.Name}
		var base float64
		for ci, cfg := range configs {
			bd := grid[bi][ci].Breakdowns[coreIdx]
			total := float64(bd.Total())
			if ci == 0 {
				base = total
			}
			norm := total / base
			bar := BreakdownBar{Design: cfg.Name(), Total: norm, Parts: bd.Scaled(norm)}
			row.Bars = append(row.Bars, bar)
			sums[ci] = append(sums[ci], norm)
		}
		fig.Rows = append(fig.Rows, row)
	}
	for ci, cfg := range configs {
		fig.Geomean = append(fig.Geomean, BreakdownBar{
			Design: cfg.Name(), Total: stats.Geomean(sums[ci]),
		})
	}
	return fig
}

// Table renders the figure as text: one line per (benchmark, design).
func (f *BreakdownFigure) Table() string {
	t := stats.NewTable(f.Title,
		"Benchmark", "Design", "Norm.Time", "PreL2", "L2", "BUS", "L3", "MEM", "PostL2")
	for _, row := range f.Rows {
		for _, bar := range row.Bars {
			t.AddRowf(row.Benchmark, bar.Design, bar.Total,
				bar.Parts[stats.PreL2], bar.Parts[stats.L2], bar.Parts[stats.Bus],
				bar.Parts[stats.L3], bar.Parts[stats.Mem], bar.Parts[stats.PostL2])
		}
	}
	for _, g := range f.Geomean {
		t.AddRowf("GeoMean", g.Design, g.Total, "", "", "", "", "", "")
	}
	return t.String()
}

// NormTotal returns the geomean normalized time of the named design.
func (f *BreakdownFigure) NormTotal(designName string) float64 {
	for _, g := range f.Geomean {
		if g.Design == designName {
			return g.Total
		}
	}
	return 0
}

// ---- Figure 6 ----

// Fig6Row holds one benchmark's normalized execution times for the three
// HEAVYWT interconnect variants.
type Fig6Row struct {
	Benchmark string
	// Lat1Q32 is the baseline (1.0 by construction), Lat10Q32 the
	// 10-cycle interconnect, Lat10Q64 the 10-cycle interconnect with
	// 64-entry queues.
	Lat1Q32, Lat10Q32, Lat10Q64 float64
}

// Fig6Result reproduces Figure 6: streaming codes tolerate transit delay.
type Fig6Result struct {
	Rows    []Fig6Row
	Geomean Fig6Row
}

// Fig6 runs the transit-delay tolerance experiment.
// In-flight simulations abort once ctx is done.
func Fig6(ctx context.Context) (*Fig6Result, error) {
	cfg1 := design.HeavyWTConfig()
	cfg10 := design.HeavyWTConfig()
	cfg10.InterconnectLat = 10
	cfg10.Label = "HEAVYWT_lat10"
	cfg10q64 := design.HeavyWTConfig()
	cfg10q64.InterconnectLat = 10
	cfg10q64.QueueDepth = 64
	cfg10q64.Label = "HEAVYWT_lat10_q64"

	res := &Fig6Result{Geomean: Fig6Row{Benchmark: "GeoMean"}}
	grid, err := runMatrix(ctx, []design.Config{cfg1, cfg10, cfg10q64})
	if err != nil {
		return nil, err
	}
	var g1, g10, g64 []float64
	for bi, b := range workloads.All() {
		base := float64(grid[bi][0].Cycles)
		row := Fig6Row{
			Benchmark: b.Name,
			Lat1Q32:   1.0,
			Lat10Q32:  float64(grid[bi][1].Cycles) / base,
			Lat10Q64:  float64(grid[bi][2].Cycles) / base,
		}
		res.Rows = append(res.Rows, row)
		g1 = append(g1, row.Lat1Q32)
		g10 = append(g10, row.Lat10Q32)
		g64 = append(g64, row.Lat10Q64)
	}
	res.Geomean.Lat1Q32 = stats.Geomean(g1)
	res.Geomean.Lat10Q32 = stats.Geomean(g10)
	res.Geomean.Lat10Q64 = stats.Geomean(g64)
	return res, nil
}

// Table renders Figure 6 as text.
func (r *Fig6Result) Table() string {
	t := stats.NewTable("Figure 6: Effect of transit delay on streaming codes (HEAVYWT, normalized)",
		"Benchmark", "1cyc/32q", "10cyc/32q", "10cyc/64q")
	for _, row := range r.Rows {
		t.AddRowf(row.Benchmark, row.Lat1Q32, row.Lat10Q32, row.Lat10Q64)
	}
	t.AddRowf(r.Geomean.Benchmark, r.Geomean.Lat1Q32, r.Geomean.Lat10Q32, r.Geomean.Lat10Q64)
	return t.String()
}

// ---- Figure 7 ----

// Fig7 runs the four primary design points and reports the producer
// thread's normalized execution-time breakdowns.
func Fig7(ctx context.Context) (*BreakdownFigure, error) {
	return breakdownFigure(ctx,
		"Figure 7: Normalized execution times for each design point (producer thread)",
		design.FourPoints(), 0)
}

// Fig7Consumer is the consumer-thread companion of Figure 7 — the paper
// omitted it "due to space constraints", noting overall consumer
// performance matched the producer with different component breakdowns.
func Fig7Consumer() (*BreakdownFigure, error) {
	return breakdownFigure(context.Background(),
		"Figure 7 (consumer thread; omitted in the paper for space)",
		design.FourPoints(), 1)
}

// ---- Figure 8 ----

// Fig8Row is one benchmark's dynamic communication-to-application
// instruction ratios.
type Fig8Row struct {
	Benchmark          string
	Producer, Consumer float64
}

// Fig8Result reproduces Figure 8 (ratio of communication to application
// instructions; the paper observes one communication per 5-20 application
// instructions on average).
type Fig8Result struct {
	Rows    []Fig8Row
	Geomean Fig8Row
}

// Fig8 measures communication frequency on the HEAVYWT design (the
// produce/consume instruction builds, as in the paper).
func Fig8(ctx context.Context) (*Fig8Result, error) {
	res := &Fig8Result{Geomean: Fig8Row{Benchmark: "GeoMean"}}
	grid, err := runMatrix(ctx, []design.Config{design.HeavyWTConfig()})
	if err != nil {
		return nil, err
	}
	var gp, gc []float64
	for bi, b := range workloads.All() {
		r := grid[bi][0]
		row := Fig8Row{Benchmark: b.Name, Producer: r.CommRatio(0), Consumer: r.CommRatio(1)}
		res.Rows = append(res.Rows, row)
		gp = append(gp, row.Producer)
		gc = append(gc, row.Consumer)
	}
	res.Geomean.Producer = stats.Geomean(gp)
	res.Geomean.Consumer = stats.Geomean(gc)
	return res, nil
}

// Table renders Figure 8 as text.
func (r *Fig8Result) Table() string {
	t := stats.NewTable("Figure 8: communication : application dynamic instruction ratio",
		"Benchmark", "Producer", "Consumer", "1 comm per N app (prod)", "(cons)")
	for _, row := range r.Rows {
		t.AddRowf(row.Benchmark, row.Producer, row.Consumer,
			perN(row.Producer), perN(row.Consumer))
	}
	t.AddRowf(r.Geomean.Benchmark, r.Geomean.Producer, r.Geomean.Consumer,
		perN(r.Geomean.Producer), perN(r.Geomean.Consumer))
	return t.String()
}

func perN(ratio float64) string {
	if ratio <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 1/ratio)
}

// ---- Figure 9 ----

// Fig9Row is one benchmark's loop speedup of HEAVYWT over the
// single-threaded baseline.
type Fig9Row struct {
	Benchmark    string
	SingleCycles uint64
	HeavyCycles  uint64
	Speedup      float64
}

// Fig9Result reproduces Figure 9 (geomean speedup of optimized loops in
// HEAVYWT over single-threaded execution; the paper reports 1.29).
type Fig9Result struct {
	Rows    []Fig9Row
	Geomean float64
}

// Fig9 runs the speedup experiment: each benchmark's single-threaded
// baseline and HEAVYWT run are independent jobs on the worker pool.
func Fig9(ctx context.Context) (*Fig9Result, error) {
	benches := workloads.All()
	heavy := design.HeavyWTConfig()
	jobs := make([]Job, 0, 2*len(benches))
	for _, b := range benches {
		jobs = append(jobs,
			Job{Bench: b.Name, Single: true},
			Job{Bench: b.Name, Config: heavy})
	}
	results := newRunner().Run(ctx, jobs)
	if err := FirstErr(results); err != nil {
		return nil, err
	}
	res := &Fig9Result{}
	var sp []float64
	for bi, b := range benches {
		single, heavyRes := results[2*bi].Res, results[2*bi+1].Res
		row := Fig9Row{
			Benchmark:    b.Name,
			SingleCycles: single.Cycles,
			HeavyCycles:  heavyRes.Cycles,
			Speedup:      float64(single.Cycles) / float64(heavyRes.Cycles),
		}
		res.Rows = append(res.Rows, row)
		sp = append(sp, row.Speedup)
	}
	res.Geomean = stats.Geomean(sp)
	return res, nil
}

// Table renders Figure 9 as text.
func (r *Fig9Result) Table() string {
	t := stats.NewTable("Figure 9: Speedup of optimized loops in HEAVYWT over single-threaded execution",
		"Benchmark", "Single (cycles)", "HEAVYWT (cycles)", "Speedup")
	for _, row := range r.Rows {
		t.AddRowf(row.Benchmark, row.SingleCycles, row.HeavyCycles, row.Speedup)
	}
	t.AddRowf("GeoMean", "", "", r.Geomean)
	return t.String()
}

// ---- Figures 10 and 11 ----

// Fig10 repeats Figure 7 with a 4-CPU-cycle bus (and a 4-cycle HEAVYWT
// interconnect), exposing arbitration backlog on the narrow bus.
func Fig10(ctx context.Context) (*BreakdownFigure, error) {
	configs := design.FourPoints()
	for i := range configs {
		configs[i].BusCPB = 4
		configs[i].InterconnectLat = 4
	}
	return breakdownFigure(ctx,
		"Figure 10: Effect of increased transit delay (bus latency = 4 CPU cycles)",
		configs, 0)
}

// Fig11 widens the 4-cycle bus to 128 bytes (a full line per beat),
// restoring most of the lost performance.
func Fig11(ctx context.Context) (*BreakdownFigure, error) {
	configs := design.FourPoints()
	for i := range configs {
		configs[i].BusCPB = 4
		configs[i].BusWidth = 128
		configs[i].InterconnectLat = 4
	}
	return breakdownFigure(ctx,
		"Figure 11: Effect of increased interconnect bandwidth (bus width = 128 bytes, latency = 4)",
		configs, 0)
}

// ---- Figure 12 ----

// Fig12Result holds the producer- and consumer-thread breakdowns for the
// SYNCOPTI optimization study.
type Fig12Result struct {
	Producer *BreakdownFigure
	Consumer *BreakdownFigure
}

// Fig12 evaluates the stream cache and queue-size optimizations:
// HEAVYWT vs SYNCOPTI_SC+Q64 vs SYNCOPTI_SC vs SYNCOPTI_Q64 vs SYNCOPTI.
// Both panels come from one simulation grid: every run records both
// threads' breakdowns.
func Fig12(ctx context.Context) (*Fig12Result, error) {
	configs := []design.Config{
		design.HeavyWTConfig(),
		design.SyncOptiSCQ64Config(),
		design.SyncOptiSCConfig(),
		design.SyncOptiQ64Config(),
		design.SyncOptiConfig(),
	}
	grid, err := runMatrix(ctx, configs)
	if err != nil {
		return nil, err
	}
	return &Fig12Result{
		Producer: breakdownFromGrid(grid,
			"Figure 12 (producer): effect of streaming cache and queue size", configs, 0),
		Consumer: breakdownFromGrid(grid,
			"Figure 12 (consumer): effect of streaming cache and queue size", configs, 1),
	}, nil
}

// Table renders both halves of Figure 12.
func (r *Fig12Result) Table() string {
	return r.Producer.Table() + "\n" + r.Consumer.Table()
}
