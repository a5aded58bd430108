package hfstream

import (
	"context"

	"hfstream/internal/exp"
	"hfstream/internal/sim"
)

// RunCtx executes the pipelined (two-thread) version of the benchmark on
// the design point, with cancellation and per-run observability options.
// The run aborts with an error once ctx is done, so a deadlocked or slow
// simulation cannot outlive its caller's deadline. Like Run, the memory
// image is verified against the functional-interpreter oracle.
func RunCtx(ctx context.Context, b Benchmark, d Design, opts ...RunOpt) (Result, error) {
	return run(ctx, b, exp.Job{Config: d.cfg}, opts)
}

// RunStagedCtx is RunStaged with cancellation and observability options
// (see RunCtx).
func RunStagedCtx(ctx context.Context, b Benchmark, d Design, stages int, opts ...RunOpt) (Result, error) {
	return run(ctx, b, exp.Job{Config: d.cfg, Stages: stages}, opts)
}

// RunSingleThreadedCtx is RunSingleThreaded with cancellation and
// observability options (see RunCtx).
func RunSingleThreadedCtx(ctx context.Context, b Benchmark, opts ...RunOpt) (Result, error) {
	return run(ctx, b, exp.Job{Single: true}, opts)
}

// run executes the job on b through the experiment harness's run path.
func run(ctx context.Context, b Benchmark, j exp.Job, opts []RunOpt) (Result, error) {
	o := gatherOpts(opts)
	j.Bench = b.Name()
	res, err := exp.Run(ctx, b.b, j, o.expOpts())
	if err != nil {
		return Result{}, err
	}
	designName := j.Config.Name()
	if j.Single {
		designName = "SINGLE"
	}
	return finishRun(res, b.Name(), designName, o)
}

// finishRun converts the internal result and applies post-run options
// (the metrics snapshot write).
func finishRun(res *sim.Result, bench, designName string, o runOpts) (Result, error) {
	out := fromSim(res)
	if o.metrics != nil {
		m := res.Metrics()
		m.Benchmark = bench
		m.Design = designName
		buf, err := sim.MetricsJSON(m)
		if err != nil {
			return Result{}, err
		}
		if _, err := o.metrics.Write(buf); err != nil {
			return Result{}, err
		}
	}
	return out, nil
}
