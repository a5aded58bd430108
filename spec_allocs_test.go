//go:build !race

// The allocation gates are left out of -race builds, whose
// instrumentation (and sync.Pool drops) change allocation counts.

package hfstream

import "testing"

// keyAllocSpecs covers the run shapes a served request can name: the
// dual-core pipeline, a _<k>CORE chain, the single-threaded baseline and
// a Stages-deep pipeline.
var keyAllocSpecs = []Spec{
	{Bench: "adpcmdec", Design: "HEAVYWT"},
	{Bench: "wc", Design: "SYNCOPTI_4CORE"},
	{Bench: "mcf", Single: true},
	{Bench: "fir", Design: "HEAVYWT", Stages: 3},
}

// TestSpecKeyAllocs gates the cache-hit path's key computation on its
// exact allocation count: resolving a name must read the shared workload
// registry, never rebuild it (which cost 437 to 439 allocations per Key).
// Measured: 4 for every shape. The bound is the measured count plus 4,
// room for a small encoder change.
func TestSpecKeyAllocs(t *testing.T) {
	const maxAllocs = 8
	for _, s := range keyAllocSpecs {
		if _, err := s.Key(); err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		n := testing.AllocsPerRun(100, func() {
			if _, err := s.Key(); err != nil {
				panic(err)
			}
		})
		if n > maxAllocs {
			t.Errorf("%+v: Key allocates %.0f times per call, want <= %d", s, n, maxAllocs)
		}
	}
}

func BenchmarkSpecKey(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := keyAllocSpecs[i%len(keyAllocSpecs)].Key(); err != nil {
			b.Fatal(err)
		}
	}
}
