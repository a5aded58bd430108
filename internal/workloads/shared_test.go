package workloads_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hfstream/internal/dswp"
	"hfstream/internal/exp"
	"hfstream/internal/isa"
	"hfstream/internal/mem"
	"hfstream/internal/workloads"
)

// derive computes everything callers derive from a shared benchmark —
// the pipelined, single, 3-stage and parallel-stage programs, the input
// image Setup writes and the oracle's output region — as one comparable
// text. Derivations the benchmark refuses contribute their error text.
func derive(b *workloads.Benchmark) string {
	var sb strings.Builder
	progs := func(label string, ps []*isa.Program, err error) {
		fmt.Fprintf(&sb, "== %s\n", label)
		if err != nil {
			fmt.Fprintf(&sb, "error: %v\n", err)
			return
		}
		for _, p := range ps {
			sb.WriteString(p.String())
		}
	}
	threads, queues, err := b.Pipelined()
	progs(fmt.Sprintf("pipelined (%d queues)", queues), threads[:], err)
	single, err := b.Single()
	progs("single", []*isa.Program{single}, err)
	if b.Loop != nil {
		res, err := dswp.PartitionN(b.Loop, 3)
		if err == nil {
			progs("3-stage", res.Threads, nil)
		} else {
			progs("3-stage", nil, err)
		}
		res, err = dswp.PartitionParallel(b.Loop, 3)
		if err == nil {
			progs("parallel", res.Threads, nil)
		} else {
			progs("parallel", nil, err)
		}
	}
	img := mem.New()
	b.Setup(img)
	fmt.Fprintf(&sb, "== setup in %x out %x\n", regionDigest(img, b.InputRegions...), regionDigest(img, b.Out))
	want, err := exp.Expected(b)
	if err != nil {
		fmt.Fprintf(&sb, "== oracle error: %v\n", err)
	} else {
		fmt.Fprintf(&sb, "== oracle out %x\n", regionDigest(want, b.Out))
	}
	return sb.String()
}

func regionDigest(img *mem.Memory, regions ...mem.Region) [sha256.Size]byte {
	h := sha256.New()
	var w [8]byte
	for _, r := range regions {
		for a := r.Base; a < r.End(); a += 8 {
			binary.LittleEndian.PutUint64(w[:], img.Read8(a))
			h.Write(w[:])
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestSharedRegistryConcurrentUse hits every benchmark's shared registry
// instance from many goroutines at once and requires each derivation to
// equal a serial reference. Under -race (make race) it also proves the
// derivations only read the shared instance.
func TestSharedRegistryConcurrentUse(t *testing.T) {
	const perBench = 6
	all := workloads.All()
	ref := make([]string, len(all))
	for i, b := range all {
		ref[i] = derive(b)
	}
	got := make([][perBench]string, len(all))
	var wg sync.WaitGroup
	for i := range all {
		for g := 0; g < perBench; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b, err := workloads.ByName(all[i].Name)
				if err != nil {
					got[i][g] = err.Error()
					return
				}
				got[i][g] = derive(b)
			}()
		}
	}
	wg.Wait()
	for i, b := range all {
		for g, s := range got[i] {
			if s != ref[i] {
				t.Errorf("%s: goroutine %d derived a different result than the serial reference", b.Name, g)
			}
		}
	}
}

// TestRegistryIsShared pins the registry contract: All and ByName hand
// out the same instances every call, and All's slice is the caller's to
// reorder or extend.
func TestRegistryIsShared(t *testing.T) {
	a, b := workloads.All(), workloads.All()
	if len(a) != 9 || len(b) != 9 {
		t.Fatalf("All returned %d and %d benchmarks, want 9", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("All()[%d]: two calls returned different instances", i)
		}
		if got, err := workloads.ByName(a[i].Name); err != nil || got != a[i] {
			t.Errorf("ByName(%q) = %p, %v; want the All() instance %p", a[i].Name, got, err, a[i])
		}
	}

	first := a[0]
	for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
		a[i], a[j] = a[j], a[i]
	}
	a[1] = nil
	_ = append(a[:3], nil, nil) // writes a[3] and a[4] in place
	c := workloads.All()
	if c[0] != first || c[1] == nil || c[3] == nil || c[4] == nil {
		t.Fatal("mutating All's slice changed the registry order")
	}
	for i, bm := range c {
		if got, err := workloads.ByName(bm.Name); err != nil || got != b[i] {
			t.Errorf("after mutating All's slice, ByName(%q) = %p, %v; want %p", bm.Name, got, err, b[i])
		}
	}
}

func TestByNameUnknownListsFigureOrder(t *testing.T) {
	_, err := workloads.ByName("nope")
	const want = `workloads: unknown benchmark "nope" (have: art equake mcf bzip2 adpcmdec epicdec wc fir fft2)`
	if err == nil || err.Error() != want {
		t.Fatalf("ByName(\"nope\") error = %v, want %s", err, want)
	}
}
