package inet

import (
	"testing"

	"offnetrisk/internal/scenario"
)

// BenchmarkWorldGenerate measures world synthesis at the default-world
// scale. Generation only — no deployment, no snapshot I/O. The sub-benchmark
// keeps the name "legacy" because that name keys its perf-gate history.
func BenchmarkWorldGenerate(b *testing.B) {
	b.Run("legacy", func(b *testing.B) {
		cfg := ConfigFromScenario(scenario.Default(), 42)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Generate(cfg)
		}
	})
}
