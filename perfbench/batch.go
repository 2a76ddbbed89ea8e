package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/curate"
	"repro/internal/dataset"
	"repro/internal/trace"
)

const (
	// datasetSeed curates the VerilogEval-syntax dataset: one fixed
	// 212-entry artifact, as in the paper (cmd/benchmark's default seed).
	// --seed drives the simulated model and the request streams instead,
	// so seeds vary the inputs without changing the dataset's size or
	// difficulty mix.
	datasetSeed = 2024
	// fixGridRepeats attempts each curated entry this many times per
	// Table 1 cell (the paper uses 10). One repeat keeps a child near one
	// second, so a run holds about ten children and their median is
	// steady on a noisy host.
	fixGridRepeats = 1
	// tinyEntries and tinyProblems size the batch workloads in the
	// package test.
	tinyEntries  = 6
	tinyProblems = 2
)

// timed returns how long fn took.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// newFixer is the first core.New of a child: the paper's full
// configuration, with its retrieval index.
func newFixer(seed int64) (*core.RTLFixer, error) {
	return core.New(core.Options{CompilerName: "quartus", RAG: true, Mode: core.ModeReAct, Seed: seed, Cache: true})
}

// benchTracing installs a recording journal and, in a traced child, a
// trace collector on the bench package. It returns the recorder and a
// function that folds the collected traces.
func benchTracing(traced bool) (*recorder, func(*spanFold)) {
	rec := &recorder{}
	bench.SetJournal(rec)
	if !traced {
		return rec, func(*spanFold) {}
	}
	var mu sync.Mutex
	var traces []*trace.Trace
	col := trace.NewCollector(0, -1, 0)
	col.SetOnFinish(func(t *trace.Trace) {
		mu.Lock()
		traces = append(traces, t)
		mu.Unlock()
	})
	bench.SetTracer(col)
	return rec, func(f *spanFold) {
		for _, t := range traces {
			f.add(t.JSON())
		}
	}
}

func fingerprint(tables ...string) string {
	sum := sha256.Sum256([]byte(strings.Join(tables, "")))
	return hex.EncodeToString(sum[:])
}

// runFixGrid is the fix-grid workload: bench.RunTable1 over the curated
// entries with one repeat per cell — all agent work, no simulation.
func runFixGrid(spec childSpec) (*childResult, error) {
	res := &childResult{}
	l := newLayers()
	var entries []curate.Entry
	curateT := timed(func() { entries, _ = curate.Build(curate.Options{Seed: datasetSeed}) })
	if spec.Tiny {
		entries = entries[:tinyEntries]
	}
	var err error
	coreT := timed(func() { _, err = newFixer(spec.Seed) })
	if err != nil {
		return nil, err
	}
	res.SetupS = (curateT + coreT).Seconds()
	l["curate.build_s"] = curateT.Seconds()
	l["core.new_s"] = coreT.Seconds()

	rec, foldTraces := benchTracing(spec.Traced)
	m, err := startMeter(spec.Traced)
	if err != nil {
		return nil, err
	}
	t1 := bench.RunTable1(bench.Table1Config{Seed: spec.Seed, Repeats: fixGridRepeats, Entries: entries, Workers: spec.Workers, Cache: true})
	if err := m.stop(res, l); err != nil {
		return nil, err
	}
	res.Fingerprint = fingerprint(t1.Render(), t1.RenderFigure7())

	// Checks. Every job must be recorded once; every reported success
	// must compile under a fresh persona; every cell's fix rate must
	// equal the success share of its recorded jobs.
	defined := 0
	for _, c := range t1.Cells {
		if c.Defined() {
			defined++
		}
	}
	want := defined * len(entries) * fixGridRepeats
	res.check(len(rec.recs) == want, "recorded %d jobs, want %d", len(rec.recs), want)
	v := newVerifier()
	type tally struct{ ok, n int }
	byLabel := map[string]*tally{}
	fixed := 0
	for _, r := range rec.recs {
		t := byLabel[r.label]
		if t == nil {
			t = &tally{}
			byLabel[r.label] = t
		}
		t.n++
		res.LatMS = append(res.LatMS, float64(r.out.ElapsedNS)/1e6)
		if !r.out.Success {
			continue
		}
		t.ok++
		fixed++
		verifyFix(res, v, r)
	}
	for label, t := range byLabel {
		cell, ok := cellFor(t1, label)
		res.check(ok && math.Abs(cell.FixRate-float64(t.ok)/float64(t.n)) < 1e-12,
			"cell %s: table says %v, recorded jobs give %d/%d", label, cell.FixRate, t.ok, t.n)
	}
	res.Ops = len(rec.recs)
	res.Quality = ratio(float64(fixed), float64(len(rec.recs)))
	if spec.Traced {
		f := newSpanFold()
		foldTraces(f)
		f.into(l, m.start, m.wall, spec.Workers)
		res.check(f.violations == 0, "%d child spans outside their parent", f.violations)
		res.Layers = l
	}
	return res, nil
}

var labelField = regexp.MustCompile(`(\w+)=([^,/]+)`)

// labelFields parses a bench journal label's key=value fields (mode,
// rag, comp, llm, ...).
func labelFields(label string) map[string]string {
	out := map[string]string{}
	for _, m := range labelField.FindAllStringSubmatch(label, -1) {
		out[m[1]] = m[2]
	}
	return out
}

// verifyFix re-compiles one reported success with the persona its
// journal label names.
func verifyFix(res *childResult, v *verifier, r record) {
	comp := labelFields(r.label)["comp"]
	res.check(v.compiles(comp, r.out.FinalCode), "reported fix does not compile under fresh %q (sample seed %d)", comp, r.job.SampleSeed)
}

// cellFor finds the Table 1 cell a journal label belongs to.
func cellFor(t1 *bench.Table1Result, label string) (bench.Table1Cell, bool) {
	f := labelFields(label)
	for _, c := range t1.Cells {
		if string(c.Prompt) == f["mode"] && fmt.Sprint(c.RAG) == f["rag"] &&
			strings.EqualFold(c.Compiler, f["comp"]) && c.Persona == f["llm"] {
			return c, true
		}
	}
	return bench.Table1Cell{}, false
}

// runPasskSim is the passk-sim workload: bench.RunTable2 over both
// VerilogEval suites — generation, simulation scoring and fixing.
func runPasskSim(spec childSpec) (*childResult, error) {
	res := &childResult{}
	l := newLayers()
	var err error
	coreT := timed(func() { _, err = newFixer(spec.Seed) })
	if err != nil {
		return nil, err
	}
	res.SetupS = coreT.Seconds()
	l["core.new_s"] = coreT.Seconds()

	cfg := bench.Table2Config{Seed: spec.Seed, SampleN: 20, Workers: spec.Workers, Cache: true}
	if spec.Tiny {
		cfg.MaxProblems = tinyProblems
	}
	rec, foldTraces := benchTracing(spec.Traced)
	m, err := startMeter(spec.Traced)
	if err != nil {
		return nil, err
	}
	t2 := bench.RunTable2(cfg)
	if err := m.stop(res, l); err != nil {
		return nil, err
	}
	res.Fingerprint = fingerprint(t2.Render(), t2.RenderFigure4())

	// Checks: every reported fix compiles under a fresh persona, and
	// every reference design passes its own testbench.
	v := newVerifier()
	for _, r := range rec.recs {
		res.LatMS = append(res.LatMS, float64(r.out.ElapsedNS)/1e6)
		if !r.out.Success {
			continue
		}
		verifyFix(res, v, r)
	}
	samples := 0
	pass1 := 0.0
	suites := 0
	for _, suite := range []dataset.Suite{dataset.SuiteHuman, dataset.SuiteMachine} {
		problems := dataset.Problems(suite)
		if cfg.MaxProblems > 0 && len(problems) > cfg.MaxProblems {
			problems = problems[:cfg.MaxProblems]
		}
		samples += len(problems) * cfg.SampleN
		for i, p := range problems {
			tb, err := p.Check(p.RefSource, rand.New(rand.NewSource(spec.Seed+int64(i))))
			res.check(err == nil && tb.Passed(), "%s/%s: reference fails its testbench (%v, %d mismatches)", suite, p.ID, err, tb.Mismatches)
		}
		row, ok := t2.Row(suite, "All")
		res.check(ok, "table 2 has no %s/All row", suite)
		pass1 += row.Fixed1
		suites++
	}
	res.Ops = samples
	res.Quality = pass1 / float64(suites)
	if spec.Traced {
		f := newSpanFold()
		foldTraces(f)
		f.into(l, m.start, m.wall, spec.Workers)
		res.check(f.violations == 0, "%d child spans outside their parent", f.violations)
		res.Layers = l
	}
	return res, nil
}
