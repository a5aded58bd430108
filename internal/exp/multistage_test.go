package exp

import (
	"context"
	"testing"

	"hfstream/internal/design"
	"hfstream/internal/dswp"
	"hfstream/internal/mem"
	"hfstream/internal/memsys"
	"hfstream/internal/sim"
	"hfstream/internal/workloads"
)

// TestThreeStageSyncOpti runs a 3-stage pipeline on a 3-core SYNCOPTI
// machine: the memory-side streaming (forwards, bulk ACKs, probes) must
// route by the partition's queue map rather than the dual-core default.
func TestThreeStageSyncOpti(t *testing.T) {
	for _, name := range []string{"adpcmdec", "fir", "fft2"} {
		name := name
		t.Run(name, func(t *testing.T) {
			b, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dswp.PartitionN(b.Loop, 3)
			if err != nil {
				t.Skipf("not 3-stage partitionable: %v", err)
			}
			if len(res.Routes) != res.QueueCount {
				t.Fatalf("routes %d != queues %d", len(res.Routes), res.QueueCount)
			}

			cfg := design.SyncOptiSCQ64Config().SimConfig()
			cfg.Preload = b.InputRegions
			for _, rt := range res.Routes {
				cfg.Mem.QueueRoutes = append(cfg.Mem.QueueRoutes,
					memsys.QueueRoute{Producer: rt.Producer, Consumer: rt.Consumer})
			}
			img := mem.New()
			b.Setup(img)
			var threads []sim.Thread
			for _, p := range res.Threads {
				threads = append(threads, sim.Thread{Prog: p})
			}
			r, err := sim.Run(cfg, img, threads)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckOutput(b, img); err != nil {
				t.Fatal(err)
			}
			two, err := Run(context.Background(), b, Job{Bench: b.Name, Config: design.SyncOptiSCQ64Config()}, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s SYNCOPTI_SC+Q64: 2 stages %d cycles, 3 stages %d cycles",
				name, two.Cycles, r.Cycles)
			if float64(r.Cycles) > float64(two.Cycles)*1.25 {
				t.Errorf("3-stage (%d) much worse than 2-stage (%d)", r.Cycles, two.Cycles)
			}
		})
	}
}

// TestRoutesMatchAssignments: every queue's producer stage must own its
// source node.
func TestRoutesMatchAssignments(t *testing.T) {
	for _, b := range workloads.All() {
		if b.Loop == nil {
			continue
		}
		res, err := dswp.Partition(b.Loop)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for qi, rt := range res.Routes {
			if rt.Producer == rt.Consumer {
				t.Errorf("%s q%d: degenerate route %+v", b.Name, qi, rt)
			}
			if rt.Producer < 0 || rt.Producer >= res.Stages ||
				rt.Consumer < 0 || rt.Consumer >= res.Stages {
				t.Errorf("%s q%d: route out of range %+v", b.Name, qi, rt)
			}
		}
	}
}
