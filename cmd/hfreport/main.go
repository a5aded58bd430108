// Command hfreport regenerates the complete evaluation as one Markdown
// report: every table and figure, the ASCII charts, the ablations and the
// cost model. Useful for comparing a modified simulator against the
// checked-in EXPERIMENTS.md record.
//
//	hfreport > report.md
//	hfreport -fast        # skip the slow bus-sensitivity sweeps
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"hfstream/internal/exp"
)

func main() {
	fast := flag.Bool("fast", false, "skip the bus-sensitivity and ablation sweeps")
	flag.Parse()

	ctx := context.Background()
	start := time.Now()
	fmt.Println("# hfstream evaluation report")
	fmt.Println()
	fmt.Println("Regenerated by `go run ./cmd/hfreport`.")
	fmt.Println()

	section := func(title, body string) {
		fmt.Printf("## %s\n\n```\n%s```\n\n", title, body)
	}
	must := func(body string, err error) string {
		if err != nil {
			fmt.Fprintln(os.Stderr, "hfreport:", err)
			os.Exit(1)
		}
		return body
	}

	section("Table 1 — benchmarks", exp.Table1())
	section("Table 2 — baseline machine", exp.Table2())
	section("Figure 3 — transit vs COMM-OP delay", exp.Fig3().Table())

	f6 := mustV(exp.Fig6(ctx))
	section("Figure 6 — transit-delay tolerance", f6.Table())

	f7 := mustV(exp.Fig7(ctx))
	section("Figure 7 — design points", f7.Table())
	section("Figure 7 — chart", f7.Chart())
	if !*fast {
		section("Figure 7 — consumer thread (omitted in the paper)",
			must(tbl(exp.Fig7Consumer())))
	}

	f8 := mustV(exp.Fig8(ctx))
	section("Figure 8 — communication frequency", f8.Table())

	f9 := mustV(exp.Fig9(ctx))
	section("Figure 9 — speedup over single-threaded", f9.Table())

	if !*fast {
		section("Figure 10 — 4-cycle bus", must(tbl(exp.Fig10(ctx))))
		section("Figure 11 — 128-byte bus", must(tbl(exp.Fig11(ctx))))
	}

	f12 := mustV(exp.Fig12(ctx))
	section("Figure 12 — stream cache and queue size", f12.Table())
	section("Figure 12 — producer chart", f12.Producer.Chart())

	section("Stall attribution — per-design zero-issue cycle breakdown",
		must(tbl(exp.StallBreakdown())))

	section("Cost vs performance", must(tbl(exp.Costs())))

	if !*fast {
		for _, f := range []func() (*exp.AblationResult, error){
			exp.AblationQLU, exp.AblationBusPipelining, exp.AblationRegMapped,
			exp.AblationCentralizedStore, exp.AblationStreamCacheSize,
			exp.AblationNetQueue, exp.AblationProbeTimeout,
		} {
			section("Ablation", must(tbl(f())))
		}
		section("Ablation", must(tbl(exp.AblationStages())))
	}

	fmt.Printf("_Generated in %s._\n", time.Since(start).Round(time.Second))
}

type tabler interface{ Table() string }

func tbl[T tabler](r T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Table(), nil
}

func mustV[T any](r T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfreport:", err)
		os.Exit(1)
	}
	return r
}
