package compiler_test

import (
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/curate"
	"repro/internal/dataset"
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
