package exp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hfstream/internal/interp"
	"hfstream/internal/mem"
	"hfstream/internal/workloads"
)

// The oracle cache memoizes Expected per benchmark: the functional
// interpreter is deterministic, so its output image is a pure function of
// the benchmark name and one run per process suffices no matter how many
// simulations verify against it. Entries are created under a mutex and
// computed under a sync.Once, so concurrent runner workers asking for the
// same benchmark share a single interpreter run and block only on that
// benchmark's entry, never on the whole cache.

type oracleEntry struct {
	once sync.Once
	img  *mem.Memory
	err  error
}

var oracleCache = struct {
	sync.Mutex
	m map[string]*oracleEntry
}{m: make(map[string]*oracleEntry)}

// oracleRuns counts functional-interpreter executions; the regression
// tests assert exactly one per benchmark per process.
var oracleRuns atomic.Uint64

// resetOracleCache drops all memoized oracle images (tests only).
func resetOracleCache() {
	oracleCache.Lock()
	oracleCache.m = make(map[string]*oracleEntry)
	oracleRuns.Store(0)
	oracleCache.Unlock()
}

// Expected returns the oracle memory image for b: the single-threaded
// program run to completion on the functional interpreter. The image is
// memoized per benchmark name and shared across goroutines; callers must
// treat it as read-only.
func Expected(b *workloads.Benchmark) (*mem.Memory, error) {
	oracleCache.Lock()
	e := oracleCache.m[b.Name]
	if e == nil {
		e = &oracleEntry{}
		oracleCache.m[b.Name] = e
	}
	oracleCache.Unlock()
	e.once.Do(func() { e.img, e.err = computeOracle(b) })
	return e.img, e.err
}

// computeOracle runs the single-threaded program on the interpreter. b
// may be the registry instance sibling goroutines are simulating: a
// Benchmark is read-only, and Single and Setup only read it.
func computeOracle(b *workloads.Benchmark) (*mem.Memory, error) {
	prog, err := b.Single()
	if err != nil {
		return nil, err
	}
	img := mem.New()
	b.Setup(img)
	oracleRuns.Add(1)
	m := interp.New(img, prog)
	if err := m.Run(0); err != nil {
		return nil, fmt.Errorf("exp: %s oracle: %w", b.Name, err)
	}
	return img, nil
}
