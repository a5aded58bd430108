// Package exp is the experiment harness: it runs benchmarks on design
// points and regenerates every table and figure of the paper's evaluation
// (Tables 1-2, Figures 3 and 6-12). Each experiment returns structured
// rows plus a rendered text table so the command-line tools, tests and
// Go benchmarks share one implementation. Independent simulations are
// fanned out across a worker pool (see runner.go) and verified against a
// memoized functional-interpreter oracle (see oracle.go).
package exp

import (
	"context"
	"fmt"

	"hfstream/fault"
	"hfstream/internal/design"
	"hfstream/internal/dswp"
	"hfstream/internal/isa"
	"hfstream/internal/lower"
	"hfstream/internal/mem"
	"hfstream/internal/memsys"
	"hfstream/internal/sim"
	"hfstream/internal/workloads"
	"hfstream/trace"
)

// RunOpts bundles the optional observability knobs a run can enable.
type RunOpts struct {
	// SampleInterval enables the per-interval time series (0 = off).
	SampleInterval uint64
	// Trace, when non-nil, receives the structured event trace.
	Trace *trace.Buffer
	// Progress, when non-nil, is called from the cycle loop every
	// ProgressEvery cycles (see sim.Config.Progress).
	Progress      func(cycle, issued uint64)
	ProgressEvery uint64
	// Faults, when non-nil, is the per-run fault injector (see
	// sim.Config.Faults); injectors carry per-run state.
	Faults *fault.Injector
	// DisableFastForward forces the per-cycle kernel loop (see
	// sim.Config.DisableFastForward); outputs are identical either way.
	DisableFastForward bool
}

// Apply copies the options onto a simulator config.
func (o RunOpts) Apply(simCfg *sim.Config) {
	simCfg.SampleInterval = o.SampleInterval
	simCfg.Trace = o.Trace
	simCfg.Progress = o.Progress
	simCfg.ProgressEvery = o.ProgressEvery
	simCfg.Faults = o.Faults
	simCfg.DisableFastForward = o.DisableFastForward
}

// Run executes one job on b, the resolved instance of j.Bench, and
// verifies the output region against the functional oracle. The job
// picks the program shape: the single-threaded baseline on the EXISTING
// machine (Single), a Stages-deep DSWP chain on the job's design point
// (Stages != 0), Cores-1 replicated workers plus a merger (Parallel
// designs), a Cores-stage chain (Cores >= 3), or else the paper's
// dual-core pipeline. Software-queue designs are lowered, and the
// partition's queue routes steer the fabric for the designs that need
// explicit routing.
func Run(ctx context.Context, b *workloads.Benchmark, j Job, opts RunOpts) (*sim.Result, error) {
	cfg := j.Config
	if j.Single {
		cfg = design.ExistingConfig()
	}
	progs, routes, label, err := programs(b, j)
	if err != nil {
		return nil, err
	}
	if !j.Single && cfg.SoftwareQueues() {
		lowered := make([]*isa.Program, len(progs))
		for i, p := range progs {
			lowered[i], err = lower.Lower(p, cfg.Layout())
			if err != nil {
				return nil, fmt.Errorf("exp: %s/%s: %w", b.Name, cfg.Name(), err)
			}
		}
		progs = lowered
	}
	simCfg := cfg.SimConfig()
	simCfg.Preload = b.InputRegions
	opts.Apply(&simCfg)
	simCfg.Cancel = ctx.Done()
	for _, rt := range routes {
		simCfg.Mem.QueueRoutes = append(simCfg.Mem.QueueRoutes,
			memsys.QueueRoute{Producer: rt.Producer, Consumer: rt.Consumer})
	}
	img := mem.New()
	b.Setup(img)
	ths := make([]sim.Thread, len(progs))
	for i, p := range progs {
		ths[i] = sim.Thread{Prog: p}
	}
	res, err := sim.Run(simCfg, img, ths)
	if err != nil {
		return nil, fmt.Errorf("exp: %s/%s: %w", b.Name, label, err)
	}
	if err := CheckOutput(b, img); err != nil {
		return nil, fmt.Errorf("exp: %s/%s: %w", b.Name, label, err)
	}
	return res, nil
}

// programs returns the job's thread programs (before lowering), the
// partition's queue routes, and the label run errors carry. The programs
// come from the benchmark's partition memo and are shared read-only.
func programs(b *workloads.Benchmark, j Job) ([]*isa.Program, []dswp.QueueRoute, string, error) {
	cfg := j.Config
	var pr *dswp.Result
	var err error
	var label string
	switch {
	case j.Single:
		prog, err := b.Single()
		return []*isa.Program{prog}, nil, "single", err
	case j.Stages == 0 && cfg.Parallel:
		if cfg.Cores < 3 {
			return nil, nil, "", fmt.Errorf("exp: %s/%s: parallel-stage designs need Cores >= 3 (got %d)", b.Name, cfg.Name(), cfg.Cores)
		}
		if b.Loop == nil {
			return nil, nil, "", fmt.Errorf("exp: %s is hand-partitioned; parallel-stage runs need an IR kernel", b.Name)
		}
		pr, err = b.PartitionParallel(cfg.Cores - 1)
		label = fmt.Sprintf("%s/%d-worker", cfg.Name(), cfg.Cores-1)
	case j.Stages == 0 && cfg.Cores < 3:
		threads, _, err := b.Pipelined()
		return threads[:], nil, cfg.Name(), err
	default:
		n := j.Stages
		if n == 0 {
			n = cfg.Cores
		}
		if b.Loop == nil {
			return nil, nil, "", fmt.Errorf("exp: %s is hand-partitioned; staged runs need an IR kernel", b.Name)
		}
		pr, err = b.PartitionN(n)
		label = fmt.Sprintf("%s/%d-stage", cfg.Name(), n)
	}
	if err != nil {
		return nil, nil, "", fmt.Errorf("exp: %s: %w", b.Name, err)
	}
	return pr.Threads, pr.Routes, label, nil
}

// CheckOutput compares the benchmark's output region in img against the
// memoized functional oracle, word by word.
func CheckOutput(b *workloads.Benchmark, img *mem.Memory) error {
	want, err := Expected(b)
	if err != nil {
		return err
	}
	for a := b.Out.Base; a < b.Out.End(); a += 8 {
		if got, exp := img.Read8(a), want.Read8(a); got != exp {
			return fmt.Errorf("output mismatch at %#x: got %#x want %#x", a, got, exp)
		}
	}
	return nil
}
