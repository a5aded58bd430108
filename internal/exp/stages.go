package exp

import (
	"context"
	"fmt"

	"hfstream/internal/design"
	"hfstream/internal/stats"
	"hfstream/internal/workloads"
)

// StageRow reports one benchmark's cycle counts per pipeline depth.
type StageRow struct {
	Benchmark string
	// Cycles[d] is the runtime with d+1 cores (index 0 = single).
	Cycles []uint64
	// Supported marks depths the kernel's SCC structure allows.
	Supported []bool
}

// StagesResult extends the paper's dual-core evaluation: DSWP depth 1-3
// on HEAVYWT machines with matching core counts (the paper argues its
// pairwise conclusions carry to larger-scale CMPs).
type StagesResult struct {
	Rows []StageRow
}

// AblationStages partitions each IR benchmark into 1, 2 and 3 pipeline
// stages and runs each on a HEAVYWT machine with that many cores (the
// 1-stage point is the single-threaded baseline). Kernels whose
// dependence structure cannot fill a depth are marked unsupported rather
// than failed.
func AblationStages() (*StagesResult, error) {
	heavy := design.HeavyWTConfig()
	res := &StagesResult{}
	var jobs []Job
	type slot struct{ row, depth int }
	var slots []slot
	for _, b := range workloads.All() {
		if b.Loop == nil {
			continue // hand-partitioned nested loop
		}
		for d := 0; d < 3; d++ {
			j := Job{Bench: b.Name, Single: true}
			if d > 0 {
				if _, err := b.PartitionN(d + 1); err != nil {
					continue // structurally unsupported
				}
				j = Job{Bench: b.Name, Config: heavy, Stages: d + 1}
			}
			slots = append(slots, slot{row: len(res.Rows), depth: d})
			jobs = append(jobs, j)
		}
		res.Rows = append(res.Rows, StageRow{Benchmark: b.Name,
			Cycles: make([]uint64, 3), Supported: make([]bool, 3)})
	}
	results := newRunner().Run(context.Background(), jobs)
	if err := FirstErr(results); err != nil {
		return nil, err
	}
	for i, s := range slots {
		row := &res.Rows[s.row]
		row.Cycles[s.depth], row.Supported[s.depth] = results[i].Res.Cycles, true
	}
	return res, nil
}

// Table renders the pipeline-depth comparison.
func (r *StagesResult) Table() string {
	t := stats.NewTable(
		"Ablation: DSWP pipeline depth on HEAVYWT (cycles; speedup vs 1 core)",
		"Benchmark", "1 core", "2 cores", "3 cores")
	for _, row := range r.Rows {
		cells := []interface{}{row.Benchmark}
		for d := 0; d < 3; d++ {
			if !row.Supported[d] {
				cells = append(cells, "n/a")
				continue
			}
			if d == 0 {
				cells = append(cells, fmt.Sprintf("%d", row.Cycles[0]))
			} else {
				cells = append(cells, fmt.Sprintf("%d (%.2fx)", row.Cycles[d],
					float64(row.Cycles[0])/float64(row.Cycles[d])))
			}
		}
		t.AddRowf(cells...)
	}
	return t.String()
}
