package analyze_test

import (
	"testing"

	"repro/internal/analyze"
	"repro/internal/dataset"
	"repro/internal/diag"
	"repro/internal/sema"
	"repro/internal/verilog"
)

// analyzeSink keeps the measured calls from being optimized away.
var analyzeSink diag.List

// BenchmarkAnalyze measures the analyzer's rules alone (analyze.Run) over the
// whole curated reference corpus (314 clean designs) per op, on designs
// parsed and elaborated once up front.
func BenchmarkAnalyze(b *testing.B) {
	type unit struct {
		file   *verilog.SourceFile
		design *sema.Design
	}
	var units []unit
	var n int64
	for _, suite := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
		for _, p := range dataset.Problems(suite) {
			f, diags := verilog.Parse(p.RefSource)
			if diags.HasErrors() {
				b.Fatalf("%s: reference does not parse: %s", p.ID, diags.Summary())
			}
			d, _ := sema.Elaborate(f)
			if d == nil {
				b.Fatalf("%s: reference does not elaborate", p.ID)
			}
			units = append(units, unit{f, d})
			n += int64(len(p.RefSource))
		}
	}
	b.ReportAllocs()
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			analyzeSink = analyze.Run(u.file, u.design, analyze.Options{})
		}
	}
}
