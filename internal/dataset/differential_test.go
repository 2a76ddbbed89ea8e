package dataset

// Differential tests: the compiled simulation engine against the
// reference tree-walker over the entire curated corpus, under seeded random
// stimulus. These are the acceptance gate for the engine — every output
// of every problem must be bit-identical on both backends, cycle by
// cycle, including testbench mismatch accounting, so every benchmark
// table stays byte-identical with the engine on.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/compiler"
	"repro/internal/fixer"
	"repro/internal/llm"
	"repro/internal/sim"
)

// lockstep drives the same vectors through both simulators and compares
// every output port after every cycle. It returns an error describing the
// first divergence.
func lockstep(p *Problem, eng, wlk *sim.Simulator, vectors []sim.Vector) error {
	outputs := eng.Design().Outputs()
	for cyc, vec := range vectors {
		for _, s := range []*sim.Simulator{eng, wlk} {
			for name, v := range vec.Inputs {
				if name == p.Clock {
					continue
				}
				if err := s.SetInput(name, v); err != nil {
					return fmt.Errorf("cycle %d: SetInput(%s): %v", cyc, name, err)
				}
			}
		}
		errE, errW := eng.Settle(), wlk.Settle()
		if (errE == nil) != (errW == nil) {
			return fmt.Errorf("cycle %d: settle disagreement: engine=%v walker=%v", cyc, errE, errW)
		}
		if errE != nil {
			return nil // both faulted identically; nothing further to compare
		}
		if p.Clock != "" {
			errE, errW = eng.ClockPulse(p.Clock), wlk.ClockPulse(p.Clock)
			if (errE == nil) != (errW == nil) {
				return fmt.Errorf("cycle %d: clock disagreement: engine=%v walker=%v", cyc, errE, errW)
			}
			if errE != nil {
				return nil
			}
		}
		for _, o := range outputs {
			ev, wv := eng.Get(o.Name), wlk.Get(o.Name)
			if ev.Width() != wv.Width() || !ev.Eq(wv) {
				return fmt.Errorf("cycle %d: output %s: engine=%s walker=%s", cyc, o.Name, ev.Hex(), wv.Hex())
			}
		}
	}
	// Final full-state sweep: internal signals must agree too, not just
	// ports — a stale internal register would poison later cycles.
	for name := range eng.Design().Signals {
		ev, wv := eng.Get(name), wlk.Get(name)
		if !ev.Eq(wv) {
			return fmt.Errorf("final state: signal %s: engine=%s walker=%s", name, ev.Hex(), wv.Hex())
		}
	}
	return nil
}

// TestDifferentialCorpus drives every curated problem on both backends
// with two independent stimulus seeds.
func TestDifferentialCorpus(t *testing.T) {
	rejected := 0
	total := 0
	for _, suite := range []Suite{SuiteHuman, SuiteMachine, SuiteRTLLM} {
		for _, p := range Problems(suite) {
			total++
			_, design, diags := compiler.Frontend(p.RefSource)
			if design == nil {
				t.Fatalf("%s/%s: reference does not compile: %s", suite, p.ID, diags.Summary())
			}
			prog, err := sim.Compile(design)
			if err != nil {
				rejected++
				t.Logf("%s/%s: engine rejected: %v", suite, p.ID, err)
				continue
			}
			for _, seed := range []int64{1, 99} {
				vectors, err := p.Vectors(rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("%s/%s: vectors: %v", suite, p.ID, err)
				}
				eng := sim.NewFromProgram(prog)
				wlk := sim.NewReference(design)
				if err := lockstep(p, eng, wlk, vectors); err != nil {
					t.Errorf("%s/%s seed %d: %v", suite, p.ID, seed, err)
				}
			}
		}
	}
	// The engine is the only production backend: a rejected reference
	// design would be unscorable, and would pass this test vacuously.
	if rejected > 0 {
		t.Errorf("%d/%d corpus designs rejected by the compiler; the compiled engine must cover the corpus", rejected, total)
	}
}

// TestDifferentialTestbenchAccounting compares full testbench results —
// cycle counts, mismatch counts, and the formatted first-mismatch
// position — between backends, using a deliberately wrong candidate so
// the mismatch path is exercised.
func TestDifferentialTestbenchAccounting(t *testing.T) {
	checked := 0
	for _, suite := range []Suite{SuiteHuman, SuiteRTLLM} {
		for _, p := range Problems(suite) {
			_, design, _ := compiler.Frontend(p.RefSource)
			if design == nil {
				t.Fatalf("%s/%s: reference does not compile", suite, p.ID)
			}
			prog, err := sim.Compile(design)
			if err != nil {
				continue
			}
			vectors, err := p.Vectors(rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatalf("%s/%s: vectors: %v", suite, p.ID, err)
			}
			wlk := sim.NewReference(design)
			// A golden model that deliberately disagrees on every cycle
			// forces mismatch accounting through both backends.
			wrong := func() sim.Golden {
				inner := p.NewGolden()
				return &invertingGolden{inner: inner}
			}
			for _, mk := range []func() sim.Golden{p.NewGolden, wrong} {
				re, errE := sim.RunTestbenchSim(sim.NewFromProgram(prog), p.Clock, vectors, mk())
				rw, errW := sim.RunTestbenchSim(wlk, p.Clock, vectors, mk())
				if (errE == nil) != (errW == nil) {
					t.Fatalf("%s/%s: error disagreement: %v vs %v", suite, p.ID, errE, errW)
				}
				if re != rw {
					t.Errorf("%s/%s: testbench result diverged:\n  engine: %+v\n  walker: %+v", suite, p.ID, re, rw)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no problems checked")
	}
}

// invertingGolden wraps a golden model and complements every expected
// output, guaranteeing mismatches whose positions both backends must
// report identically.
type invertingGolden struct{ inner sim.Golden }

func (g *invertingGolden) Reset() { g.inner.Reset() }

func (g *invertingGolden) Step(in map[string]bitvec.Vec) map[string]bitvec.Vec {
	out := g.inner.Step(in)
	flipped := make(map[string]bitvec.Vec, len(out))
	for k, v := range out {
		flipped[k] = v.Not()
	}
	return flipped
}

// TestDifferentialGeneratedCandidates fuzzes the backends with what the
// oracle actually scores in production: LLM-style corrupted samples run
// through the rule-based pre-fixer. Every candidate that elaborates and
// compiles must behave identically on both backends.
func TestDifferentialGeneratedCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	problems := Problems(SuiteHuman)
	simulated, compared := 0, 0
	for pi := 0; pi < len(problems); pi += 7 {
		p := problems[pi]
		rates := llm.SkewRates(llm.RatesFor(string(p.Suite), string(p.Difficulty)), p.ID)
		for sample := 0; sample < 4; sample++ {
			code := fixer.Fix(llm.Generate(p.RefSource, rates, rng).Code).Code
			_, design, _ := compiler.Frontend(code)
			if design == nil {
				continue // compile errors never reach the simulator
			}
			simulated++
			prog, err := sim.Compile(design)
			if err != nil {
				continue // not simulable: Check reports the compile error
			}
			vectors, err := p.Vectors(rand.New(rand.NewSource(int64(pi*31 + sample))))
			if err != nil {
				t.Fatal(err)
			}
			wlk := sim.NewReference(design)
			re, errE := sim.RunTestbenchSim(sim.NewFromProgram(prog), p.Clock, vectors, p.NewGolden())
			rw, errW := sim.RunTestbenchSim(wlk, p.Clock, vectors, p.NewGolden())
			if (errE == nil) != (errW == nil) {
				t.Fatalf("%s sample %d: error disagreement: %v vs %v", p.ID, sample, errE, errW)
			}
			if re != rw {
				t.Errorf("%s sample %d: verdict diverged:\n  engine: %+v\n  walker: %+v", p.ID, sample, re, rw)
			}
			compared++
		}
	}
	if compared < 10 {
		t.Fatalf("only %d/%d candidates compared; fuzz corpus too thin", compared, simulated)
	}
	t.Logf("compared %d compiled candidates (%d simulated)", compared, simulated)
}
