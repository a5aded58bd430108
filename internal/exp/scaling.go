package exp

import (
	"context"
	"fmt"

	"hfstream/internal/design"
	"hfstream/internal/stats"
	"hfstream/internal/workloads"
)

// The scaling study extends the paper's dual-core evaluation to N-core
// CMPs: each design point runs the same kernels at every core count and
// the figure plots speedup over the single-core baseline. Pipeline
// shapes come from the partitioners (PartitionN for k-stage chains,
// PartitionParallel for replicated workers + merger), so a cell is "n/a"
// exactly when the kernel's dependence structure cannot fill that shape.

// ScalingCores is the core-count axis of the scaling study.
var ScalingCores = []int{1, 2, 3, 4}

// ScalingBenches names the kernels of the study: two StreamIt/SPEC
// kernels with enough SCC structure to fill deep pipelines.
var ScalingBenches = []string{"fft2", "equake"}

// ScalingDesigns returns the design points of the scaling study: the
// paper's best lightweight point, the dedicated-storage point (both as
// k-stage chains), and the parallel-stage MPMC point.
func ScalingDesigns() []design.Config {
	return []design.Config{
		design.SyncOptiSCQ64Config(),
		design.HeavyWTConfig(),
		design.MPMCQ64Config(),
	}
}

// ScalingCell is one (benchmark, design, cores) measurement.
type ScalingCell struct {
	Cycles uint64
	// Supported marks shapes the kernel's dependence structure allows.
	Supported bool
}

// ScalingRow is one benchmark's curve on one design point, indexed like
// ScalingResult.Cores.
type ScalingRow struct {
	Benchmark string
	Design    string
	Cells     []ScalingCell
}

// ScalingResult holds the scaling-curve figure: speedup vs core count
// for every (benchmark, design) pair.
type ScalingResult struct {
	Cores []int
	Rows  []ScalingRow
}

// Scaling runs the full scaling study on the default runner.
// The single-core baseline is run once per benchmark and shared
// across that benchmark's rows.
func Scaling(ctx context.Context) (*ScalingResult, error) {
	res := &ScalingResult{Cores: ScalingCores}
	var jobs []Job
	type slot struct{ row, cell, job int }
	var slots []slot
	singleJob := map[string]int{}
	for _, bname := range ScalingBenches {
		b, err := workloads.ByName(bname)
		if err != nil {
			return nil, err
		}
		for _, cfg := range ScalingDesigns() {
			row := ScalingRow{Benchmark: bname, Design: cfg.Name(),
				Cells: make([]ScalingCell, len(ScalingCores))}
			ri := len(res.Rows)
			res.Rows = append(res.Rows, row)
			for ci, cores := range ScalingCores {
				if !scalingSupported(b, cfg, cores) {
					continue
				}
				var ji int
				switch {
				case cores == 1:
					idx, ok := singleJob[bname]
					if !ok {
						idx = len(jobs)
						jobs = append(jobs, Job{Bench: bname, Single: true})
						singleJob[bname] = idx
					}
					ji = idx
				case cores == 2:
					ji = len(jobs)
					jobs = append(jobs, Job{Bench: bname, Config: cfg})
				default:
					ji = len(jobs)
					jobs = append(jobs, Job{Bench: bname, Config: cfg.WithCores(cores)})
				}
				slots = append(slots, slot{row: ri, cell: ci, job: ji})
			}
		}
	}
	results := newRunner().Run(ctx, jobs)
	if err := FirstErr(results); err != nil {
		return nil, err
	}
	for _, s := range slots {
		res.Rows[s.row].Cells[s.cell] = ScalingCell{
			Cycles: results[s.job].Res.Cycles, Supported: true}
	}
	return res, nil
}

// scalingSupported reports whether the kernel's dependence structure can
// fill the requested shape on the given design; unsupported cells render
// "n/a" rather than failing the study.
func scalingSupported(b *workloads.Benchmark, cfg design.Config, cores int) bool {
	if cores == 1 {
		return true
	}
	if cores == 2 {
		// Every workload ships a working dual-core pipeline; a parallel
		// shape would leave a single worker, which PS-DSWP rejects.
		return !cfg.Parallel
	}
	if b.Loop == nil {
		return false // hand-partitioned kernels are dual-core only
	}
	// The probe goes through the benchmark's partition memo, so the run
	// it guards reuses this partition.
	if cfg.Parallel {
		_, err := b.PartitionParallel(cores - 1)
		return err == nil
	}
	_, err := b.PartitionN(cores)
	return err == nil
}

// Table renders the scaling-curve figure.
func (r *ScalingResult) Table() string {
	hdr := []string{"Benchmark", "Design"}
	for _, c := range r.Cores {
		if c == 1 {
			hdr = append(hdr, "1 core")
		} else {
			hdr = append(hdr, fmt.Sprintf("%d cores", c))
		}
	}
	t := stats.NewTable(
		"Scaling: speedup vs core count per design (cycles; speedup vs 1 core)",
		hdr...)
	for _, row := range r.Rows {
		cells := []interface{}{row.Benchmark, row.Design}
		var base uint64
		if len(row.Cells) > 0 && row.Cells[0].Supported {
			base = row.Cells[0].Cycles
		}
		for i, c := range row.Cells {
			switch {
			case !c.Supported:
				cells = append(cells, "n/a")
			case i == 0 || base == 0 || c.Cycles == 0:
				cells = append(cells, fmt.Sprintf("%d", c.Cycles))
			default:
				cells = append(cells, fmt.Sprintf("%d (%.2fx)", c.Cycles,
					float64(base)/float64(c.Cycles)))
			}
		}
		t.AddRowf(cells...)
	}
	return t.String()
}
