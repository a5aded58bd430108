package main

import (
	"reflect"
	"testing"
)

func TestCompareNamesPairsWhoseCyclesMoved(t *testing.T) {
	base := &Report{Label: "base", Pairs: []Pair{
		{Benchmark: "equake", Design: "EXISTING", Cycles: 1000, WallNs: 10},
		{Benchmark: "equake", Design: "HEAVYWT", Cycles: 500, WallNs: 10},
		{Benchmark: "mcf", Design: "EXISTING", Cycles: 700, WallNs: 10},
	}}
	rep := &Report{Pairs: []Pair{
		{Benchmark: "equake", Design: "EXISTING", Cycles: 1000, WallNs: 20},
		{Benchmark: "equake", Design: "HEAVYWT", Cycles: 501, WallNs: 5},
		{Benchmark: "wc", Design: "EXISTING", Cycles: 9, WallNs: 5}, // unmatched
	}}
	moved := compare(rep, base)
	want := []string{"equake/HEAVYWT: 501 cycles, baseline 500"}
	if !reflect.DeepEqual(moved, want) {
		t.Fatalf("moved = %q, want %q", moved, want)
	}
	// The wall-time comparison is unchanged: geomean of 10/20 and 10/5.
	if got := rep.SpeedupWallGeomean; got != 1 {
		t.Fatalf("speedup geomean = %v, want 1", got)
	}
	if moved := compare(rep, &Report{Pairs: rep.Pairs}); len(moved) != 0 {
		t.Fatalf("identical reports: moved = %q, want none", moved)
	}
}
