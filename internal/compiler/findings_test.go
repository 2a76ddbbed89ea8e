package compiler_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/analyze"
	"repro/internal/compiler"
	"repro/internal/curate"
	"repro/internal/dataset"
	"repro/internal/diag"
	"repro/internal/inject"
	"repro/internal/sema"
	"repro/internal/verilog"
)

// findingsGolden is the sha256 of findingsTranscript. It was recorded
// while the analyzer still re-parsed each source on its own, so it pins
// the per-candidate unit's memoized findings to that behaviour.
const findingsGolden = "739b844028aa01c603cd5711fbe8418dee766318cb5065967e3cbf6fbb4a4a3a"

// findingsTranscript writes the rendered analyzer findings of four
// source sets to w:
//
//   - every reference solution (314 clean designs);
//   - every curated Table 1 entry (seed 2024);
//   - the dirty lint fixtures and every reference perturbed by each
//     validity-preserving hazard mutator, so every rule fires;
//   - trap candidates: the references and the hazard set broken by each
//     elaboration-error mutator, kept only when they still parse but
//     fail elaboration. The analyzer must run on the best-effort design
//     of these.
func findingsTranscript(t testing.TB, w io.Writer, findings func(src string) diag.List) {
	var refs []string
	for _, suite := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
		for _, p := range dataset.Problems(suite) {
			refs = append(refs, p.RefSource)
		}
	}
	entries, _ := curate.Build(curate.Options{Seed: 2024})
	if len(refs) != 314 || len(entries) != curate.TargetSize {
		t.Fatalf("corpus changed size: %d references, %d curated entries", len(refs), len(entries))
	}
	emit := func(set string, i int, src string) {
		fmt.Fprintf(w, "%s %d\n%s", set, i, analyze.RenderText("main.v", findings(src)))
	}
	for i, src := range refs {
		emit("ref", i, src)
	}
	for i, e := range entries {
		emit("curated", i, e.Code)
	}
	dirty := lintFixtures(t)
	for _, m := range inject.Hazards() {
		for i, ref := range refs {
			if src, _, ok := inject.Inject(ref, m, rand.New(rand.NewSource(int64(i)))); ok {
				dirty = append(dirty, src)
			}
		}
	}
	for i, src := range dirty {
		emit("dirty", i, src)
	}
	traps := trapCandidates(append(refs, dirty...))
	if len(traps) < 1000 {
		t.Fatalf("only %d trap candidates", len(traps))
	}
	for i, src := range traps {
		emit("trap", i, src)
	}
}

// lintFixtures reads the dirty modules under testdata/lint.
func lintFixtures(t testing.TB) []string {
	paths, err := filepath.Glob("../../testdata/lint/*.v")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no lint fixtures: %v", err)
	}
	var out []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(data))
	}
	return out
}

// trapCandidates mutates every base source with each mutator whose error
// surfaces in elaboration, keeping the results that parse cleanly but
// fail to elaborate.
func trapCandidates(bases []string) []string {
	var out []string
	for _, m := range inject.All() {
		switch m.Category {
		case diag.CatUndeclaredIdent, diag.CatIndexOutOfRange, diag.CatInvalidLValue,
			diag.CatAssignToReg, diag.CatDuplicateDecl:
		default:
			continue
		}
		for i, base := range bases {
			src, _, ok := inject.Inject(base, m, rand.New(rand.NewSource(int64(i))))
			if !ok {
				continue
			}
			file, parseDiags := verilog.Parse(src)
			if parseDiags.HasErrors() {
				continue
			}
			if _, semaDiags := sema.Elaborate(file); semaDiags.HasErrors() {
				out = append(out, src)
			}
		}
	}
	return out
}

// unitFindings is the analyzer as every caller now reaches it: the
// memoized findings of the persona compile's frontend unit.
func unitFindings(src string) diag.List {
	findings, err := compiler.Quartus{}.Compile("main.v", src).Findings()
	if err != nil {
		panic(err)
	}
	return findings
}

func TestFindingsGolden(t *testing.T) {
	h := sha256.New()
	findingsTranscript(t, h, unitFindings)
	if got := hex.EncodeToString(h.Sum(nil)); got != findingsGolden {
		t.Errorf("findings transcript sha256 = %s, want %s", got, findingsGolden)
	}
}

// TestUnitFindingsConcurrent: compile-cache hits hand one unit to many
// workers at once; each must get the one memoized findings list.
func TestUnitFindingsConcurrent(t *testing.T) {
	u := compiler.NewUnit("module m(input sel, input a, output reg y);\n\talways @(*) if (sel) y = a;\nendmodule\n")
	got := make([]diag.List, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = u.Findings()
		}(i)
	}
	wg.Wait()
	for i, fs := range got {
		if len(fs) == 0 || &fs[0] != &got[0][0] {
			t.Fatalf("worker %d got %v, not the memoized list", i, fs)
		}
	}
}
