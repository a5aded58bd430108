// Package workloads defines the paper's nine benchmark loops (Table 1 and
// the two StreamIt kernels) as loop-IR kernels whose instruction mix,
// communication frequency and memory behaviour match the published
// characterization: communication once every 5-20 dynamic application
// instructions, FP-heavy StreamIt/art/equake kernels, pointer-chasing
// memory-bound mcf, and bzip2's two-deep loop nest with inter-thread
// communication at both levels.
//
// The original SPEC/Mediabench sources and the authors' DSWP-modified
// OpenIMPACT compiler are not available; these kernels are the synthetic
// equivalents documented in DESIGN.md. Eight are partitioned by the
// package dswp implementation; bzip2's nested loop is hand-partitioned
// (as the paper's StreamIt codes were).
//
// Partitioning is deterministic, so each Benchmark memoizes what it
// derives from its kernel: Single, PartitionN and PartitionParallel (and
// Pipelined, which is PartitionN(2)) run the partitioner once per shape
// per process, on first use, and hand every later caller the same
// *isa.Program or *dswp.Result, or the same error. Those shared results
// are read-only like the Benchmark itself: lower, interp and sim derive
// new programs and images from them and never write a Result, its
// Threads, Routes or Assignment, or a program's instructions.
package workloads

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"hfstream/internal/dswp"
	"hfstream/internal/ir"
	"hfstream/internal/isa"
	"hfstream/internal/mem"
)

// Benchmark is one workload: a loop kernel plus its data environment.
type Benchmark struct {
	Name     string
	Suite    string
	Function string
	// ExecPct is the fraction of whole-program execution time the paper
	// attributes to this loop (Table 1).
	ExecPct int
	// Iterations is the simulated loop trip count.
	Iterations int

	// Loop is the IR kernel; nil for hand-partitioned benchmarks.
	Loop *ir.Loop

	// Out is the region whose final contents define correctness.
	Out mem.Region
	// InputRegions lists the benchmark's data regions; the harness
	// preloads them into the cache hierarchy so measurements reflect the
	// paper's warmed, steady-state loops rather than compulsory misses.
	// Regions larger than a cache keep their natural miss behaviour
	// (mcf's 4MB pool still runs out of the L3/memory).
	InputRegions []mem.Region

	setup func(img *mem.Memory)
	hand  *handPartition

	// single and parts memoize Single and the partitions (see the
	// package comment); parts maps a partKey to its *partEntry.
	single partEntry
	parts  sync.Map
}

// partKey names one partition shape: an n-stage chain, or a
// parallel-stage partition with n workers.
type partKey struct {
	parallel bool
	n        int
}

// partEntry is one memoized derivation, computed under once. A failed
// derivation is cached too: the kernel's structure decides it, so a
// retry would fail the same way.
type partEntry struct {
	once sync.Once
	res  *dswp.Result
	prog *isa.Program
	err  error
}

// handPartition carries pre-built thread programs for kernels the IR
// cannot express (bzip2's nested loop).
type handPartition struct {
	threads [2]*isa.Program
	single  *isa.Program
	queues  int
}

// Setup writes the benchmark's input data into the image.
func (b *Benchmark) Setup(img *mem.Memory) {
	if b.setup != nil {
		b.setup(img)
	}
}

// Pipelined returns the two-thread pipelined programs (with
// produce/consume instructions) and the number of queues used.
func (b *Benchmark) Pipelined() ([2]*isa.Program, int, error) {
	if b.hand != nil {
		return b.hand.threads, b.hand.queues, nil
	}
	res, err := b.PartitionN(2)
	if err != nil {
		return [2]*isa.Program{}, 0, fmt.Errorf("workloads: %s: %w", b.Name, err)
	}
	return [2]*isa.Program{res.Threads[0], res.Threads[1]}, res.QueueCount, nil
}

// Single returns the single-threaded version of the kernel (the Figure 9
// baseline), memoized.
func (b *Benchmark) Single() (*isa.Program, error) {
	if b.hand != nil {
		return b.hand.single, nil
	}
	e := &b.single
	e.once.Do(func() {
		e.prog, e.err = dswp.Single(b.Loop)
		if e.err != nil {
			e.err = fmt.Errorf("workloads: %s: %w", b.Name, e.err)
		}
	})
	return e.prog, e.err
}

// PartitionN returns the kernel's n-stage DSWP partition, memoized: the
// result, or the error, of dswp.PartitionN(b.Loop, n).
func (b *Benchmark) PartitionN(n int) (*dswp.Result, error) {
	return b.partition(partKey{n: n}, dswp.PartitionN)
}

// PartitionParallel returns the kernel's parallel-stage partition with
// the given worker count, memoized: the result, or the error, of
// dswp.PartitionParallel(b.Loop, workers).
func (b *Benchmark) PartitionParallel(workers int) (*dswp.Result, error) {
	return b.partition(partKey{parallel: true, n: workers}, dswp.PartitionParallel)
}

func (b *Benchmark) partition(k partKey, part func(*ir.Loop, int) (*dswp.Result, error)) (*dswp.Result, error) {
	if b.Loop == nil {
		return nil, fmt.Errorf("workloads: %s is hand-partitioned and has no IR kernel to partition", b.Name)
	}
	// A shape needs at least two threads and at most one node per
	// thread to be worth keeping; others are derived afresh (chains that
	// wide fail at once). A Spec's stage count comes from outside the
	// program, and this keeps the memo bounded by the kernel's size.
	if k.n < 2 || k.n > len(b.Loop.Body) {
		return part(b.Loop, k.n)
	}
	v, ok := b.parts.Load(k)
	if !ok {
		v, _ = b.parts.LoadOrStore(k, &partEntry{})
	}
	e := v.(*partEntry)
	e.once.Do(func() { e.res, e.err = part(b.Loop, k.n) })
	return e.res, e.err
}

// ByName returns the named benchmark or an error listing valid names.
// The benchmark is the registry's shared instance (see All).
func ByName(name string) (*Benchmark, error) {
	all := registry()
	for _, b := range all {
		if b.Name == name {
			return b, nil
		}
	}
	names := ""
	for _, b := range all {
		names += " " + b.Name
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q (have:%s)", name, names)
}

// All returns the nine benchmarks in the paper's figure order. The slice
// is the caller's own; the benchmarks in it are the registry's shared
// instances.
func All() []*Benchmark { return slices.Clone(registry()) }

// registry builds the nine benchmarks once per process. A Benchmark is
// read-only after construction, so one instance serves every caller and
// goroutine: nothing writes its fields, its Loop or its hand-built
// programs; dswp, lower and interp derive new programs from them; each
// setup closure seeds its own generator, writing only the image it is
// given; and the partition memo fills lazily, each entry under its own
// sync.Once. Building the registry partitions nothing.
var registry = sync.OnceValue(buildAll)

// buildAll builds a new instance of each benchmark, in figure order.
func buildAll() []*Benchmark {
	return []*Benchmark{
		buildArt(),
		buildEquake(),
		buildMcf(),
		buildBzip2(),
		buildAdpcmdec(),
		buildEpicdec(),
		buildWc(),
		buildFir(),
		buildFft2(),
	}
}

// rng is a small deterministic xorshift64* generator so workload data is
// reproducible across runs and platforms.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// fbits returns the bit pattern of a random float in [lo, hi).
func (r *rng) fbits(lo, hi float64) uint64 {
	return math.Float64bits(lo + r.float()*(hi-lo))
}

// workload data lives above the program/result scratch space and well
// below the queue region.
const dataBase = 0x10_0000

func newAlloc() *mem.Allocator { return mem.NewAllocator(dataBase, 128) }
