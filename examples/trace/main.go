// Record a cycle-level event trace of one benchmark run and export it in
// Chrome trace_event format: instruction issue, queue operations, bus
// grants and coalesced stall runs, one lane per core plus one for the
// bus. Open the output in chrome://tracing or https://ui.perfetto.dev.
//
//	go run ./examples/trace [benchmark] [design] [out.json]
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"hfstream/internal/design"
	"hfstream/internal/exp"
	"hfstream/internal/workloads"
	"hfstream/trace"
)

func main() {
	benchName, designName, out := "bzip2", "HEAVYWT", "trace.json"
	if len(os.Args) > 1 {
		benchName = os.Args[1]
	}
	if len(os.Args) > 2 {
		designName = os.Args[2]
	}
	if len(os.Args) > 3 {
		out = os.Args[3]
	}
	b, err := workloads.ByName(benchName)
	if err != nil {
		log.Fatal(err)
	}
	var cfg design.Config
	found := false
	for _, c := range design.StandardConfigs() {
		if c.Name() == designName {
			cfg, found = c, true
		}
	}
	if !found {
		log.Fatalf("unknown design %q (try HEAVYWT, SYNCOPTI, EXISTING)", designName)
	}

	buf := trace.NewBuffer(1 << 18)
	res, err := exp.Run(context.Background(), b, exp.Job{Bench: b.Name, Config: cfg}, exp.RunOpts{Trace: buf})
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.WriteChrome(f, buf.Events(), buf.Dropped()); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on %s: %d cycles\n", b.Name, cfg.Name(), res.Cycles)
	for i := range res.Stalls {
		fmt.Printf("  core %d: %d issue cycles of %d, stalls: %s\n",
			i, res.IssueCycles[i], res.CoreCycles[i], res.Stalls[i].Summary())
	}
	fmt.Printf("wrote %d events to %s (%d dropped); open it in chrome://tracing or ui.perfetto.dev\n",
		buf.Len(), out, buf.Dropped())
}
