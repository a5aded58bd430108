package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"hfstream"
	"hfstream/internal/design"
)

// A cell is one simulation request: a benchmark on a design point.
type cell struct {
	spec hfstream.Spec
	// cfg is the design point spec.Design names; the composed (traced)
	// runs build from it.
	cfg design.Config
}

func newCell(bench string, cfg design.Config) cell {
	return cell{spec: hfstream.Spec{Bench: bench, Design: cfg.Name()}, cfg: cfg}
}

func (c cell) label() string { return c.spec.Bench + "/" + c.spec.Design }

// dualCoreCells is the paper's 9 x 7 dual-core matrix (hot_hits'
// pre-warmed set): every benchmark on every standard design point.
func dualCoreCells() []cell {
	var out []cell
	for _, b := range hfstream.Benchmarks() {
		for _, cfg := range design.StandardConfigs() {
			out = append(out, newCell(b.Name(), cfg))
		}
	}
	return out
}

// ncoreCells generates ncore_cold's request list from the seed: for every
// benchmark and k = 3..8, one k-stage chain on one of the seven standard
// design points and one parallel-stage cell on MPMC or MPMC_Q64. The seed
// deals the designs out cyclically: a seeded order of the seven points
// and a seeded offset per benchmark, stepped by one at each k, and the
// same for MPMC and MPMC_Q64. So every seed runs each design at every
// stage count (twice for two of them) and each benchmark on six of the
// seven designs, and the seed changes which benchmark meets which design
// at which k; left independent per k, the draws made whole runs of one
// seed 10% slower than another's. Cells the exclusion rule names are
// returned separately. The list is ordered by descending k (partitioning
// cost grows with the stage count), so the costliest requests start
// first.
func ncoreCells(seed int64) (included, excluded []cell) {
	rng := rand.New(rand.NewSource(seed))
	designs := design.StandardConfigs()
	benches := hfstream.Benchmarks()
	order := rng.Perm(len(designs))
	chainOff := rng.Perm(len(benches))
	parOff := rng.Perm(len(benches))
	for k := 8; k >= 3; k-- {
		for i, b := range benches {
			chain := designs[order[(chainOff[i]+k)%len(order)]]
			par := design.MPMCConfig()
			if (parOff[i]+k)%2 == 1 {
				par = design.MPMCQ64Config()
			}
			for _, c := range []cell{newCell(b.Name(), chain.WithCores(k)), newCell(b.Name(), par.WithCores(k))} {
				if excludedReason(c) != "" {
					excluded = append(excluded, c)
				} else {
					included = append(included, c)
				}
			}
		}
	}
	return included, excluded
}

// excludedReason is the static exclusion rule for N-core cells. It names
// the shapes the partitioners cannot build, from the kernels' structure
// alone, and returns the text the rejection must carry ("" = the cell is
// feasible):
//
//   - bzip2 is hand-partitioned (two threads); it has no IR loop to cut
//     into more stages or replicate.
//   - mcf's exit test loads from memory, so its control slice cannot be
//     replicated across parallel-stage workers; its chain has 6 SCCs and
//     too little free work for more than 5 stages.
//   - epicdec's pins leave no valid 8-stage cut; wc's none for 7 or 8.
//
// checkExclusions verifies that this rule matches, cell for cell, the
// cells the API rejects.
func excludedReason(c cell) string {
	k, parallel := c.cfg.Cores, c.cfg.Parallel
	switch b := c.spec.Bench; {
	case b == "bzip2":
		return "hand-partitioned"
	case b == "mcf" && parallel:
		return "exit slice touches memory"
	case b == "mcf" && k == 6:
		return "too little partitionable work"
	case b == "mcf" && k >= 7:
		return "SCCs; cannot form"
	case b == "epicdec" && !parallel && k == 8:
		return "no valid 8-stage cut"
	case b == "wc" && !parallel && k >= 7:
		return fmt.Sprintf("no valid %d-stage cut", k)
	}
	return ""
}

// checkExclusions runs every excluded cell through the direct API and
// requires a static refusal carrying the rule's reason: an error that is
// none of the simulator's run-time failures (deadlock, cancellation,
// validation), so no cycle was simulated. The included cells are checked
// the other way by the workload itself: every one must succeed.
func checkExclusions(r *run, excluded []cell) {
	ctx := context.Background()
	for _, c := range excluded {
		_, err := c.spec.RunCtx(ctx)
		want := excludedReason(c)
		var dl *hfstream.DeadlockError
		var ce *hfstream.CanceledError
		var ve *hfstream.ValidationError
		switch {
		case err == nil:
			r.problem("excluded cell %s ran; the exclusion rule hides a feasible cell", c.label())
		case errors.As(err, &dl), errors.As(err, &ce), errors.As(err, &ve):
			r.problem("excluded cell %s failed at run time, not statically: %v", c.label(), err)
		case !strings.Contains(err.Error(), want):
			r.problem("excluded cell %s rejected for another reason than %q: %v", c.label(), want, err)
		}
	}
}

// checkDesign checks that the public resolver gives the cell's design name
// the same shape as the configuration the benchmark generated it from.
func checkDesign(c cell) error {
	d, err := hfstream.DesignByName(c.spec.Design)
	if err != nil {
		return err
	}
	if c.cfg.Name() != d.Name() || (c.cfg.Cores >= 3 && c.cfg.Cores != d.Cores()) || c.cfg.Parallel != d.ParallelStage() {
		return fmt.Errorf("design %q resolves differently here and in the API (%s)", c.spec.Design, d.Name())
	}
	return nil
}
