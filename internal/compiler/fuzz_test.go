package compiler_test

import (
	"reflect"
	"testing"

	"repro/internal/analyze"
	"repro/internal/compiler"
	"repro/internal/curate"
	"repro/internal/dataset"
	"repro/internal/diag"
	"repro/internal/sema"
	"repro/internal/verilog"
)

// FuzzFrontend holds compiler.Frontend to two invariants on arbitrary
// input: it never panics, and two calls on the same source return
// identical diagnostics (and agree on whether a design was produced).
// The seeds are curated sources: a few reference solutions and a few
// erroneous implementations from the curated syntax-error dataset. Plain
// go test runs the seeds and any checked-in crashers under testdata/fuzz.
func FuzzFrontend(f *testing.F) {
	for _, suite := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
		for _, p := range dataset.Problems(suite)[:2] {
			f.Add(p.RefSource)
		}
	}
	entries, _ := curate.Build(curate.Options{Seed: 2024})
	for _, e := range entries[:6] {
		f.Add(e.Code)
	}
	f.Add("")
	f.Add("module m(input a, output y); assign y = a")
	f.Fuzz(func(t *testing.T, src string) {
		_, d1, diags1 := compiler.Frontend(src)
		_, d2, diags2 := compiler.Frontend(src)
		if (d1 == nil) != (d2 == nil) {
			t.Fatalf("design produced on one call only (%v vs %v)", d1 != nil, d2 != nil)
		}
		if !reflect.DeepEqual(diags1, diags2) {
			t.Fatalf("diagnostics differ across calls:\n%v\n%v", diags1, diags2)
		}
	})
}

// FuzzAnalyze holds the frontend unit's memoized findings to three
// invariants on arbitrary input: the analyzer never panics (Findings
// would report it as an error), the findings equal analyze.Run over an
// independent verilog.Parse + sema.Elaborate of the same source (the
// best-effort design, also when elaboration fails), and a repeat call
// returns the identical memoized list.
func FuzzAnalyze(f *testing.F) {
	for _, suite := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
		for _, p := range dataset.Problems(suite)[:2] {
			f.Add(p.RefSource)
		}
	}
	entries, _ := curate.Build(curate.Options{Seed: 2024})
	for _, e := range entries[:6] {
		f.Add(e.Code)
	}
	for _, src := range lintFixtures(f) {
		f.Add(src)
	}
	f.Add(`module m(input a, output reg y);
	always @(*) begin
		if (undeclared_enable) y = a;
	end
endmodule`)
	f.Fuzz(func(t *testing.T, src string) {
		u := compiler.NewUnit(src)
		got, err := u.Findings()
		if err != nil {
			t.Fatalf("analyzer failed: %v", err)
		}
		var want diag.List
		if file, parseDiags := verilog.Parse(src); !parseDiags.HasErrors() {
			design, _ := sema.Elaborate(file)
			want = analyze.Run(file, design, analyze.Options{})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("unit findings differ from an independent analysis:\n%v\n%v", got, want)
		}
		again, err := u.Findings()
		if err != nil || !reflect.DeepEqual(got, again) {
			t.Fatalf("repeat call differs: %v\n%v\n%v", err, got, again)
		}
	})
}
