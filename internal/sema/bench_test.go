package sema_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/sema"
	"repro/internal/verilog"
)

// elabSink keeps the measured calls from being optimized away.
var elabSink *sema.Design

// BenchmarkElaborate measures elaboration of the whole curated reference
// corpus (314 clean designs) per op, on files parsed once up front.
func BenchmarkElaborate(b *testing.B) {
	var files []*verilog.SourceFile
	var n int64
	for _, suite := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
		for _, p := range dataset.Problems(suite) {
			f, diags := verilog.Parse(p.RefSource)
			if diags.HasErrors() {
				b.Fatalf("%s: reference does not parse: %s", p.ID, diags.Summary())
			}
			files = append(files, f)
			n += int64(len(p.RefSource))
		}
	}
	b.ReportAllocs()
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range files {
			elabSink, _ = sema.Elaborate(f)
		}
	}
}
