package hfstream_test

// The run-path digest golden: the sha256 of the WithMetrics snapshot of
// every benchmark on every run shape the public API offers — single,
// the seven dual-core designs, the §3 variants, a Spec-staged chain,
// every standard design as a 3- and 4-core chain, and the 4-core
// parallel-stage points — checked in as testdata/run_digests.txt. The
// differential batteries only compare run paths against each other, so a
// timing drift that moved every path alike would pass them; this file
// pins the absolute numbers. Cells the partitioners refuse are recorded
// with their refusal text, so a feasible cell turning infeasible (or the
// reverse) shows up too. Every cell runs with fast-forwarding on and off,
// and both must match the file.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hfstream"
)

const digestGolden = "testdata/run_digests.txt"

// digestSpecs lists one benchmark's cells in file order.
func digestSpecs(bench string) []hfstream.Spec {
	specs := []hfstream.Spec{{Bench: bench, Single: true}}
	var standard []string
	for _, d := range hfstream.Designs() {
		standard = append(standard, d.Name())
	}
	names := append([]string{}, standard...)
	names = append(names, "REGMAPPED", "NETQUEUE_2hop", "HEAVYWT_CENTRAL")
	for _, n := range names {
		specs = append(specs, hfstream.Spec{Bench: bench, Design: n})
	}
	specs = append(specs, hfstream.Spec{Bench: bench, Design: "HEAVYWT", Stages: 3})
	for _, k := range []int{3, 4} {
		for _, n := range standard {
			specs = append(specs, hfstream.Spec{Bench: bench, Design: fmt.Sprintf("%s_%dCORE", n, k)})
		}
	}
	return append(specs,
		hfstream.Spec{Bench: bench, Design: "MPMC_4CORE"},
		hfstream.Spec{Bench: bench, Design: "MPMC_Q64_4CORE"})
}

// digestLine renders one cell: "<bench> <shape> <sha256>" for a run, or
// "<bench> <shape> refused: <error>" for a refusal.
func digestLine(s hfstream.Spec, opts ...hfstream.RunOpt) string {
	shape := s.Design
	switch {
	case s.Single:
		shape = "SINGLE"
	case s.Stages != 0:
		shape = fmt.Sprintf("%s/%d-stage", s.Design, s.Stages)
	}
	var buf bytes.Buffer
	opts = append(opts, hfstream.WithMetrics(&buf))
	if _, err := s.RunCtx(context.Background(), opts...); err != nil {
		return fmt.Sprintf("%s %s refused: %v", s.Bench, shape, err)
	}
	return fmt.Sprintf("%s %s %x", s.Bench, shape, sha256.Sum256(buf.Bytes()))
}

func TestRunDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full run-shape matrix")
	}
	var specs []hfstream.Spec
	for _, b := range hfstream.Benchmarks() {
		specs = append(specs, digestSpecs(b.Name())...)
	}
	lines := make([]string, len(specs))
	noFF := make([]string, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				lines[i] = digestLine(specs[i])
				noFF[i] = digestLine(specs[i], hfstream.WithoutFastForward())
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()

	raw, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s has %d cells, the matrix has %d", digestGolden, len(want), len(lines))
	}
	for i, got := range lines {
		if got != want[i] {
			t.Errorf("cell %d drifted:\n got: %s\nwant: %s", i, got, want[i])
		}
		if noFF[i] != want[i] {
			t.Errorf("cell %d drifted with fast-forwarding off:\n got: %s\nwant: %s", i, noFF[i], want[i])
		}
	}
}
