package verilog_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/verilog"
)

// referenceSources is the fixed per-layer benchmark corpus: the curated
// reference solutions of every suite (314 clean designs), in suite order.
func referenceSources() ([]string, int64) {
	var srcs []string
	var n int64
	for _, suite := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
		for _, p := range dataset.Problems(suite) {
			srcs = append(srcs, p.RefSource)
			n += int64(len(p.RefSource))
		}
	}
	return srcs, n
}

// parseSink keeps the measured calls from being optimized away.
var parseSink *verilog.SourceFile

// BenchmarkParse measures lexing plus parsing of the whole reference
// corpus per op — the first stage of every cache-miss compile.
func BenchmarkParse(b *testing.B) {
	srcs, n := referenceSources()
	b.ReportAllocs()
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			parseSink, _ = verilog.Parse(src)
		}
	}
}
