package exp_test

import (
	"context"
	"sync"
	"testing"

	"hfstream"
	"hfstream/internal/exp"
)

// TestExperimentsSubmitEachJobOnce runs every experiment once with a
// progress hook and requires that no experiment submits the same job
// twice in one call: simulations are deterministic, so a repeat only
// redoes work whose answer is already known. It also pins the job
// counts, so a figure that starts rerunning its grid shows here.
func TestExperimentsSubmitEachJobOnce(t *testing.T) {
	var mu sync.Mutex
	var names []string
	exp.SetProgress(func(_, _ int, r exp.JobResult) {
		mu.Lock()
		names = append(names, r.Job.Name())
		mu.Unlock()
	})
	defer exp.SetProgress(nil)

	jobs := map[string]int{}
	total := 0
	for _, name := range hfstream.ExperimentNames() {
		mu.Lock()
		names = nil
		mu.Unlock()
		if _, err := hfstream.RunExperimentCtx(context.Background(), name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mu.Lock()
		got := names
		mu.Unlock()
		seen := map[string]bool{}
		for _, n := range got {
			if seen[n] {
				t.Errorf("%s submitted job %s more than once", name, n)
			}
			seen[n] = true
		}
		jobs[name] = len(got)
		total += len(got)
	}
	if jobs[hfstream.ExpFig12] != 45 {
		t.Errorf("fig12 ran %d jobs, want 45 (9 benchmarks x 5 designs, shared by both panels)", jobs[hfstream.ExpFig12])
	}
	if total != 225 {
		t.Errorf("a pass over every experiment ran %d jobs, want 225 (per experiment: %v)", total, jobs)
	}
}
