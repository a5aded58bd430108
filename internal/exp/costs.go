package exp

import (
	"context"
	"fmt"

	"hfstream/internal/design"
	"hfstream/internal/stats"
)

// CostRow is one design's cost/performance summary.
type CostRow struct {
	Design          string
	AddedBytes      int
	OSContextBytes  int
	SwitchCycles    float64
	NormPerformance float64 // vs HEAVYWT (from Figure 7/12 data)
}

// CostResult reproduces the paper's cost/performance trade-off argument:
// SYNCOPTI_SC+Q64 achieves nearly HEAVYWT's performance with ~1% of its
// additional storage and a fraction of its OS context.
type CostResult struct {
	Rows []CostRow
	// StorageRatio is SYNCOPTI_SC+Q64's added storage as a fraction of
	// HEAVYWT's (the paper's "1%" claim).
	StorageRatio float64
}

// Costs computes the hardware/OS cost table and joins it with measured
// performance from the Figure 12 sweep.
func Costs() (*CostResult, error) {
	f12, err := Fig12(context.Background())
	if err != nil {
		return nil, err
	}
	f7, err := Fig7(context.Background())
	if err != nil {
		return nil, err
	}
	perf := func(name string) float64 {
		if v := f12.Producer.NormTotal(name); v != 0 {
			return v
		}
		return f7.NormTotal(name)
	}

	configs := []design.Config{
		design.ExistingConfig(),
		design.MemOptiConfig(),
		design.SyncOptiConfig(),
		design.SyncOptiSCQ64Config(),
		design.HeavyWTConfig(),
	}
	res := &CostResult{}
	var heavyBytes, scq64Bytes int
	for _, cfg := range configs {
		hc := cfg.Cost()
		row := CostRow{
			Design:         cfg.Name(),
			AddedBytes:     hc.TotalAddedBytes(),
			OSContextBytes: hc.OSContextBytes,
			// 16 bytes/cycle spill bandwidth (the L3 bus), 200 cycles to
			// drain in-flight interconnect state.
			SwitchCycles:    hc.ContextSwitchCycles(16, 200),
			NormPerformance: perf(cfg.Name()),
		}
		res.Rows = append(res.Rows, row)
		switch cfg.Point {
		case design.HeavyWT:
			heavyBytes = row.AddedBytes
		case design.SyncOpti:
			if cfg.StreamCacheEntries > 0 {
				scq64Bytes = row.AddedBytes
			}
		}
	}
	if heavyBytes > 0 {
		res.StorageRatio = float64(scq64Bytes) / float64(heavyBytes)
	}
	return res, nil
}

// Table renders the cost/performance summary.
func (r *CostResult) Table() string {
	t := stats.NewTable(
		"Cost vs performance (paper conclusion: 98% of the speedup at 1% of the storage)",
		"Design", "Added storage (B)", "OS context (B)", "Switch cost (cyc)", "Time vs HEAVYWT")
	for _, row := range r.Rows {
		t.AddRowf(row.Design, row.AddedBytes, row.OSContextBytes,
			fmt.Sprintf("%.0f", row.SwitchCycles), row.NormPerformance)
	}
	t.AddRowf("SC+Q64 / HEAVYWT storage", fmt.Sprintf("%.1f%%", r.StorageRatio*100), "", "", "")
	return t.String()
}
