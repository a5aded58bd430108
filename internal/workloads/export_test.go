package workloads

// BuildAll builds new instances of the nine benchmarks, each with an
// empty partition memo, so a test can race goroutines on first use.
var BuildAll = buildAll

// MemoEntries counts the partition shapes b has memoized.
func MemoEntries(b *Benchmark) int {
	n := 0
	b.parts.Range(func(_, _ any) bool { n++; return true })
	return n
}
