package hfstream

import (
	"context"

	"hfstream/internal/exp"
)

// Experiment names accepted by RunExperiment.
const (
	ExpTable1 = "table1"
	ExpTable2 = "table2"
	ExpFig3   = "fig3"
	ExpFig6   = "fig6"
	ExpFig7   = "fig7"
	ExpFig8   = "fig8"
	ExpFig9   = "fig9"
	ExpFig10  = "fig10"
	ExpFig11  = "fig11"
	ExpFig12  = "fig12"
	// ExpScaling is the N-core extension study: speedup vs core count for
	// the k-stage and parallel-stage design points (not a paper figure).
	ExpScaling = "scaling"
)

// ExperimentNames lists every reproducible table and figure.
func ExperimentNames() []string {
	return []string{
		ExpTable1, ExpTable2, ExpFig3, ExpFig6, ExpFig7,
		ExpFig8, ExpFig9, ExpFig10, ExpFig11, ExpFig12,
		ExpScaling,
	}
}

// RunExperiment regenerates one of the paper's tables or figures and
// returns its text rendering. Figure experiments run the full benchmark
// matrix and take seconds each. It is RunExperimentCtx without
// cancellation.
func RunExperiment(name string) (string, error) {
	return RunExperimentCtx(context.Background(), name)
}

// RunExperimentCtx is RunExperiment with cancellation: once ctx is done,
// in-flight simulations abort and the experiment returns an error. The
// table experiments (table1, table2, fig3) are pure computations and
// finish regardless of ctx.
func RunExperimentCtx(ctx context.Context, name string) (string, error) {
	switch name {
	case ExpTable1:
		return exp.Table1(), nil
	case ExpTable2:
		return exp.Table2(), nil
	case ExpFig3:
		return exp.Fig3().Table(), nil
	case ExpFig6:
		r, err := exp.Fig6(ctx)
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	case ExpFig7:
		r, err := exp.Fig7(ctx)
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	case ExpFig8:
		r, err := exp.Fig8(ctx)
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	case ExpFig9:
		r, err := exp.Fig9(ctx)
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	case ExpFig10:
		r, err := exp.Fig10(ctx)
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	case ExpFig11:
		r, err := exp.Fig11(ctx)
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	case ExpFig12:
		r, err := exp.Fig12(ctx)
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	case ExpScaling:
		r, err := exp.Scaling(ctx)
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	default:
		return "", errUnknownExperiment(name)
	}
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "hfstream: unknown experiment " + string(e)
}
