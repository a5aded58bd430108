package workloads_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
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
		res, err := b.PartitionN(3)
		if err == nil {
			progs("3-stage", res.Threads, nil)
		} else {
			progs("3-stage", nil, err)
		}
		res, err = b.PartitionParallel(3)
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

// memoCall is one memoized derivation: the program or partition it
// returned, or its error text.
type memoCall struct {
	prog *isa.Program
	res  *dswp.Result
	err  string
}

func memoOf(prog *isa.Program, res *dswp.Result, err error) memoCall {
	c := memoCall{prog: prog, res: res}
	if err != nil {
		c.err = err.Error()
	}
	return c
}

// memoShape is one memo accessor and the fresh derivation it must match.
type memoShape struct {
	name  string
	memo  func(b *workloads.Benchmark) memoCall
	fresh func(b *workloads.Benchmark) memoCall
}

// memoShapes lists the accessors the race covers for an IR kernel:
// Single, the dual-core pipeline, a 3-stage chain and a 3-worker
// parallel partition, plus an 8-stage chain, which epicdec's pins rule
// out (mcf's parallel partition fails too: its exit slice touches
// memory). Hand-partitioned kernels have nothing to memoize.
func memoShapes(b *workloads.Benchmark) []memoShape {
	if b.Loop == nil {
		return nil
	}
	single := memoShape{
		name: "single",
		memo: func(b *workloads.Benchmark) memoCall {
			p, err := b.Single()
			return memoOf(p, nil, err)
		},
		fresh: func(b *workloads.Benchmark) memoCall {
			p, err := dswp.Single(b.Loop)
			if err != nil {
				err = fmt.Errorf("workloads: %s: %w", b.Name, err)
			}
			return memoOf(p, nil, err)
		},
	}
	chain := func(n int) memoShape {
		return memoShape{
			name: fmt.Sprintf("%d-stage", n),
			memo: func(b *workloads.Benchmark) memoCall {
				res, err := b.PartitionN(n)
				return memoOf(nil, res, err)
			},
			fresh: func(b *workloads.Benchmark) memoCall {
				res, err := dswp.PartitionN(b.Loop, n)
				return memoOf(nil, res, err)
			},
		}
	}
	shapes := []memoShape{single, chain(2), chain(3), {
		name: "3-worker",
		memo: func(b *workloads.Benchmark) memoCall {
			res, err := b.PartitionParallel(3)
			return memoOf(nil, res, err)
		},
		fresh: func(b *workloads.Benchmark) memoCall {
			res, err := dswp.PartitionParallel(b.Loop, 3)
			return memoOf(nil, res, err)
		},
	}}
	if b.Name == "epicdec" {
		shapes = append(shapes, chain(8))
	}
	return shapes
}

// checkPartitionMemo races goroutines on the first call of every memo
// accessor of freshly built benchmarks. Every call of one accessor must
// return the same pointer (or error text), equal to a fresh derivation,
// and Pipelined must hand out the memoized 2-stage threads.
func checkPartitionMemo(t *testing.T) {
	const racers = 4
	wantErr := map[string]bool{"mcf/3-worker": true, "epicdec/8-stage": true}
	for _, b := range workloads.BuildAll() {
		shapes := memoShapes(b)
		got := make([][racers]memoCall, len(shapes))
		var wg sync.WaitGroup
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Each racer starts at a different shape, so first
				// calls collide on every entry, not just the first.
				for k := range shapes {
					si := (k + g) % len(shapes)
					got[si][g] = shapes[si].memo(b)
				}
			}()
		}
		wg.Wait()
		for si, sh := range shapes {
			label := b.Name + "/" + sh.name
			again := sh.memo(b)
			for g, c := range got[si] {
				if c != again {
					t.Errorf("%s: racer %d got %p/%p %q, a repeat call %p/%p %q",
						label, g, c.prog, c.res, c.err, again.prog, again.res, again.err)
				}
			}
			fresh := sh.fresh(b)
			if again.err != fresh.err {
				t.Errorf("%s: memo error %q, fresh derivation %q", label, again.err, fresh.err)
			}
			if (again.err != "") != wantErr[label] {
				t.Errorf("%s: error %q, want an error: %v", label, again.err, wantErr[label])
			}
			if !reflect.DeepEqual(again.prog, fresh.prog) || !reflect.DeepEqual(again.res, fresh.res) {
				t.Errorf("%s: memoized result differs from a fresh derivation", label)
			}
		}
		if b.Loop == nil {
			if _, err := b.PartitionN(2); err == nil {
				t.Errorf("%s: hand-partitioned, but PartitionN(2) succeeded", b.Name)
			}
			continue
		}
		threads, queues, err := b.Pipelined()
		two, _ := b.PartitionN(2)
		if err != nil || threads[0] != two.Threads[0] || threads[1] != two.Threads[1] || queues != two.QueueCount {
			t.Errorf("%s: Pipelined = %p %p (%d queues), %v; want the memoized 2-stage threads %p %p (%d queues)",
				b.Name, threads[0], threads[1], queues, err, two.Threads[0], two.Threads[1], two.QueueCount)
		}
	}
}

// TestPartitionMemoIsBounded asks for chains far wider than the kernel,
// as a Spec's stage count from a request may: each must fail like a
// fresh partition without adding a memo entry.
func TestPartitionMemoIsBounded(t *testing.T) {
	b := workloads.BuildAll()[0]
	if _, err := b.PartitionN(2); err != nil {
		t.Fatal(err)
	}
	for n := len(b.Loop.Body) + 1; n < len(b.Loop.Body)+100; n++ {
		_, err := b.PartitionN(n)
		_, fresh := dswp.PartitionN(b.Loop, n)
		if err == nil || fresh == nil || err.Error() != fresh.Error() {
			t.Fatalf("%s: PartitionN(%d) error %v, fresh derivation %v", b.Name, n, err, fresh)
		}
	}
	if got := workloads.MemoEntries(b); got != 1 {
		t.Errorf("%s: %d memo entries after one in-range shape and 99 too-wide ones, want 1", b.Name, got)
	}
}

// TestSharedRegistryConcurrentUse hits every benchmark's shared registry
// instance from many goroutines at once and requires each derivation to
// equal a serial reference. Under -race (make race) it also proves the
// derivations only read the shared instance, and that the partition
// memo's first calls are safe to race.
func TestSharedRegistryConcurrentUse(t *testing.T) {
	checkPartitionMemo(t)

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
