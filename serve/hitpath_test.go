//go:build !race

// The allocation gate is left out of -race builds, whose instrumentation
// (and sync.Pool drops) change allocation counts.

package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// hitBody is the request the hit-path gates replay; warmHit runs it once
// so every later request is a cache hit.
const hitBody = `{"bench":"adpcmdec","design":"EXISTING"}`

func warmHit(t testing.TB) http.Handler {
	t.Helper()
	s := New(Config{Workers: 1})
	t.Cleanup(func() { s.Drain(context.Background()) })
	h := s.Handler()
	if src := serveHit(h); src != "miss" {
		t.Fatalf("warm-up request: cache %q, want miss", src)
	}
	return h
}

// serveHit sends hitBody through h in process and returns the cache
// provenance header, or "" on a non-200 response.
func serveHit(h http.Handler) string {
	req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader([]byte(hitBody)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return ""
	}
	return rec.Header().Get("X-Hfserve-Cache")
}

// TestHitPathAllocs gates a cached /v1/run on its exact allocation count,
// counted in process with an httptest request and recorder (both of which
// the count includes). Measured: 38; before the workload registry was
// built once it was 471, nearly all of it rebuilding nine kernels to
// resolve one name. The bound is the measured count plus 7, a margin for
// net/http and encoder changes.
func TestHitPathAllocs(t *testing.T) {
	const maxAllocs = 45
	h := warmHit(t)
	n := testing.AllocsPerRun(100, func() {
		if src := serveHit(h); src != "hit" {
			panic("hit path: cache " + src)
		}
	})
	if n > maxAllocs {
		t.Errorf("cache hit allocates %.0f times per request, want <= %d", n, maxAllocs)
	}
}

func BenchmarkServeHit(b *testing.B) {
	h := warmHit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if src := serveHit(h); src != "hit" {
			b.Fatalf("cache %q, want hit", src)
		}
	}
}
