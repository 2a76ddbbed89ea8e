package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/fixer"
	"repro/internal/llm"
	"repro/internal/sim"
)

var allSuites = []Suite{SuiteMachine, SuiteHuman, SuiteRTLLM}

// testbenchSeeds are the vector seeds the testbench tests sweep.
var testbenchSeeds = []int64{1, 7, 2024}

// candidates returns the reference plus a few generated samples, run
// through the rule-based pre-fixer as the scoring path does: a mix of
// passing, mismatching and non-compiling designs.
func candidates(p *Problem, rng *rand.Rand) []string {
	out := []string{p.RefSource}
	rates := llm.SkewRates(llm.RatesFor(string(p.Suite), string(p.Difficulty)), p.ID)
	for i := 0; i < 3; i++ {
		out = append(out, fixer.Fix(llm.Generate(p.RefSource, rates, rng).Code).Code)
	}
	return out
}

// checkPerCall is the scoring path without a Testbench: fresh vectors, a
// fresh golden model and the simulator, all per candidate.
func checkPerCall(p *Problem, candidate string, seed int64) (sim.TBResult, error) {
	prog, design, diags, err := oracle.Program(candidate)
	if design == nil {
		return sim.TBResult{}, fmt.Errorf("candidate does not compile: %s", diags.Summary())
	}
	if err != nil {
		return sim.TBResult{}, err
	}
	vectors, err := p.Vectors(rand.New(rand.NewSource(seed)))
	if err != nil {
		return sim.TBResult{}, err
	}
	return sim.RunTestbenchSim(sim.NewFromProgram(prog), p.Clock, vectors, p.NewGolden())
}

func sameVerdict(a sim.TBResult, errA error, b sim.TBResult, errB error) bool {
	if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
		return false
	}
	return a.Cycles == b.Cycles && a.Mismatches == b.Mismatches && a.FirstMismatch == b.FirstMismatch
}

// TestTestbenchEquivalence scores every problem's reference and generated
// candidates against a prebuilt Testbench, through the single-shot Check,
// and through the per-call path; all three must agree on every verdict.
// Scoring must also leave the shared stimulus untouched.
func TestTestbenchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	checked, mismatching := 0, 0
	for _, suite := range allSuites {
		for _, p := range Problems(suite) {
			cands := candidates(p, rng)
			for _, seed := range testbenchSeeds {
				tb, err := p.NewTestbench(rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("%s/%s: %v", suite, p.ID, err)
				}
				for ci, c := range cands {
					want, errWant := checkPerCall(p, c, seed)
					got, errGot := p.CheckObserved(c, tb, sim.TBObserve{})
					if !sameVerdict(got, errGot, want, errWant) {
						t.Fatalf("%s/%s seed %d candidate %d: testbench %+v (%v), per-call %+v (%v)",
							suite, p.ID, seed, ci, got, errGot, want, errWant)
					}
					single, errSingle := p.Check(c, rand.New(rand.NewSource(seed)))
					if !sameVerdict(single, errSingle, want, errWant) {
						t.Fatalf("%s/%s seed %d candidate %d: Check %+v (%v), per-call %+v (%v)",
							suite, p.ID, seed, ci, single, errSingle, want, errWant)
					}
					checked++
					if errWant == nil && want.Mismatches > 0 {
						mismatching++
					}
				}
				fresh, err := p.Vectors(rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(tb.vectors, fresh) {
					t.Fatalf("%s/%s seed %d: scoring modified the testbench stimulus", suite, p.ID, seed)
				}
			}
		}
	}
	if mismatching == 0 {
		t.Fatal("no candidate mismatched: the sweep does not exercise FirstMismatch")
	}
	t.Logf("%d checks agree (%d with mismatches)", checked, mismatching)
}

// sameOutputs reports whether two expected-output maps hold the same
// ports with equal-width, equal values.
func sameOutputs(a, b map[string]bitvec.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || va.Width() != vb.Width() || !va.Eq(vb) {
			return false
		}
	}
	return true
}

// TestTestbenchRecordingLockstep steps a fresh golden model beside each
// recorded trace, after the recording is complete. A golden model that
// reuses or mutates a map or vector it returned earlier would make the
// recording diverge from the model here.
func TestTestbenchRecordingLockstep(t *testing.T) {
	for _, suite := range allSuites {
		for _, p := range Problems(suite) {
			for _, seed := range testbenchSeeds {
				tb, err := p.NewTestbench(rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				g := p.NewGolden()
				g.Reset()
				for cyc, v := range tb.vectors {
					if want := g.Step(v.Inputs); !sameOutputs(tb.expected[cyc], want) {
						t.Fatalf("%s/%s seed %d cycle %d: recorded %v, golden %v",
							suite, p.ID, seed, cyc, tb.expected[cyc], want)
					}
				}
			}
		}
	}
}

// TestTestbenchSharedAcrossGoroutines scores candidates concurrently
// against one Testbench per problem; run it under -race.
func TestTestbenchSharedAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, id := range []string{"counter_up_w8", "half_adder", "dff_w8"} {
		p, ok := ByID(SuiteHuman, id)
		if !ok {
			t.Fatalf("missing problem %s", id)
		}
		tb, err := p.NewTestbench(rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		cands := candidates(p, rng)
		type verdict struct {
			res sim.TBResult
			err error
		}
		want := make([]verdict, len(cands))
		for i, c := range cands {
			want[i].res, want[i].err = p.CheckObserved(c, tb, sim.TBObserve{})
		}
		var wg sync.WaitGroup
		errs := make(chan string, 4*len(cands))
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, c := range cands {
					got, err := p.CheckObserved(c, tb, sim.TBObserve{})
					if !sameVerdict(got, err, want[i].res, want[i].err) {
						errs <- fmt.Sprintf("%s candidate %d: concurrent %+v (%v), serial %+v (%v)",
							id, i, got, err, want[i].res, want[i].err)
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}

// TestCheckObservedRejectsForeignTestbench: a testbench scores only the
// problem that built it.
func TestCheckObservedRejectsForeignTestbench(t *testing.T) {
	a, _ := ByID(SuiteHuman, "half_adder")
	b, _ := ByID(SuiteHuman, "counter_up_w8")
	tb, err := b.NewTestbench(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.CheckObserved(a.RefSource, tb, sim.TBObserve{}); err == nil {
		t.Fatal("a testbench built for another problem must be rejected")
	}
}

// vectorsGolden pins the sha256 of every problem's stimulus at seed 7:
// the vector generator must stay bit-identical.
const vectorsGolden = "00391c8c1446cc4c5b1088a43904f6557983e3f993f3386bc982e5d42ea587ed"

func TestVectorsGolden(t *testing.T) {
	h := sha256.New()
	for _, suite := range allSuites {
		for _, p := range Problems(suite) {
			vectors, err := p.Vectors(rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s/%s\n", suite, p.ID)
			for _, v := range vectors {
				names := make([]string, 0, len(v.Inputs))
				for name := range v.Inputs {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					fmt.Fprintf(h, "%s=%d'h%s ", name, v.Inputs[name].Width(), v.Inputs[name].Hex())
				}
				fmt.Fprintln(h)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != vectorsGolden {
		t.Errorf("stimulus sha256 = %s, want %s", got, vectorsGolden)
	}
}

// BenchmarkTestbench times building one testbench: the stimulus plus the
// recorded golden trace.
func BenchmarkTestbench(b *testing.B) {
	p, _ := ByID(SuiteHuman, "counter_up_w8")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.NewTestbench(rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheck times scoring one candidate: against a prebuilt
// testbench (what the pass@k tables do per sample), and single-shot
// (the testbench rebuilt per call).
func BenchmarkCheck(b *testing.B) {
	p, _ := ByID(SuiteHuman, "counter_up_w8")
	b.Run("testbench", func(b *testing.B) {
		tb, err := p.NewTestbench(rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.CheckObserved(p.RefSource, tb, sim.TBObserve{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("single-shot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Check(p.RefSource, rand.New(rand.NewSource(1))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
