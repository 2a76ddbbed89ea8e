// Package dataset holds the benchmark problem corpora standing in for
// VerilogEval-Machine, VerilogEval-Human, and RTLLM. Each problem pairs a
// natural-language description (machine-style low-level or human-style
// high-level, matching the two VerilogEval tracks), a reference Verilog
// implementation, and a cycle-accurate Go golden model used by the
// simulator-based pass@k oracle.
//
// The suite sizes mirror the paper: Human has 156 problems split 71 easy /
// 85 hard (the paper's split at pass-rate 0.1), Machine has 143, and the
// RTLLM-style suite holds larger multi-feature designs.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/memo"
	"repro/internal/sim"
)

// oracle is the package-wide content-addressed cache over the functional
// oracle's compile pipeline (parse + elaborate + engine compile). Every
// consumer of Problem.Check — the bench tables, the examples, rtlfixerd's
// fix loop — funnels through here, so repeated candidates and the
// reference recompilation behind every testbench are served from cache.
// The cache is transparent: results are byte-identical with or without it.
var oracle = memo.NewSimCache(0)

// OracleCacheStats snapshots the package oracle's memoization counters.
func OracleCacheStats() memo.Stats { return oracle.Stats() }

// Suite identifies a benchmark track.
type Suite string

// Benchmark suites.
const (
	SuiteMachine Suite = "machine"
	SuiteHuman   Suite = "human"
	SuiteRTLLM   Suite = "rtllm"
)

// Difficulty is the paper's easy/hard split.
type Difficulty string

// Difficulty levels.
const (
	Easy Difficulty = "easy"
	Hard Difficulty = "hard"
)

// Problem is one benchmark entry.
type Problem struct {
	// ID is unique within a suite (e.g. "vector_reverse_w100").
	ID string
	// Suite is the track the problem belongs to.
	Suite Suite
	// Difficulty is the easy/hard tag driving the generator's pass rates.
	Difficulty Difficulty
	// Description is the prompt text, styled per suite.
	Description string
	// RefSource is the known-good Verilog implementation.
	RefSource string
	// Clock names the clock input, or "" for combinational problems.
	Clock string
	// NewGolden builds a fresh golden model instance.
	NewGolden func() sim.Golden
	// Cycles is the number of testbench vectors to run (0 = 64).
	Cycles int
}

// Vectors generates the problem's stimulus: random values on every
// non-clock input, with reset-style inputs held high for the first two
// cycles so golden model and DUT leave reset together.
func (p *Problem) Vectors(rng *rand.Rand) ([]sim.Vector, error) {
	_, design, diags := oracle.Frontend(p.RefSource)
	if design == nil {
		return nil, fmt.Errorf("problem %s: reference does not compile: %s", p.ID, diags.Summary())
	}
	n := p.Cycles
	if n == 0 {
		n = 64
	}
	inputs := design.Inputs()
	var vectors []sim.Vector
	for c := 0; c < n; c++ {
		v := sim.Vector{Inputs: map[string]bitvec.Vec{}}
		for _, in := range inputs {
			if in.Name == p.Clock {
				continue
			}
			if isResetName(in.Name) {
				if c < 2 {
					v.Inputs[in.Name] = bitvec.FromUint64(in.Width(), 1)
				} else {
					// occasional mid-run reset pulses exercise the reset
					// path beyond the preamble
					val := uint64(0)
					if rng.Intn(16) == 0 {
						val = 1
					}
					v.Inputs[in.Name] = bitvec.FromUint64(in.Width(), val)
				}
				continue
			}
			v.Inputs[in.Name] = randomVec(rng, in.Width())
		}
		vectors = append(vectors, v)
	}
	return vectors, nil
}

func isResetName(name string) bool {
	switch name {
	case "rst", "reset", "areset", "rst_n", "resetn":
		return true
	}
	return false
}

func randomVec(rng *rand.Rand, width int) bitvec.Vec {
	v := bitvec.New(width)
	for i := 0; i < width; i += 64 {
		chunk := rng.Uint64()
		for b := 0; b < 64 && i+b < width; b++ {
			if chunk>>b&1 == 1 {
				v.SetBitInPlace(i+b, true)
			}
		}
	}
	return v
}

// Testbench is one problem's stimulus for one generator together with
// the golden model's expected outputs for every cycle, recorded by
// stepping a single fresh golden model once. A golden model's outputs
// depend only on the inputs it has been stepped with, so the recording
// is what any fresh model would return; every candidate scored against
// the same (problem, seed) can replay it instead of regenerating the
// vectors and re-stepping the model. A Testbench is immutable and safe
// to share across goroutines.
type Testbench struct {
	p        *Problem
	vectors  []sim.Vector
	expected []map[string]bitvec.Vec
}

// NewTestbench draws the problem's stimulus from rng (as Vectors does)
// and records the golden model's response to it.
func (p *Problem) NewTestbench(rng *rand.Rand) (*Testbench, error) {
	vectors, err := p.Vectors(rng)
	if err != nil {
		return nil, err
	}
	golden := p.NewGolden()
	golden.Reset()
	expected := make([]map[string]bitvec.Vec, len(vectors))
	for i, v := range vectors {
		expected[i] = golden.Step(v.Inputs)
	}
	return &Testbench{p: p, vectors: vectors, expected: expected}, nil
}

// Problem returns the problem the testbench was built for.
func (tb *Testbench) Problem() *Problem { return tb.p }

// replayGolden replays a Testbench's recorded expected outputs, one
// cycle per Step; Reset rewinds it. Each run gets its own cursor over the
// shared recording.
type replayGolden struct {
	expected []map[string]bitvec.Vec
	next     int
}

// Reset implements sim.Golden.
func (g *replayGolden) Reset() { g.next = 0 }

// Step implements sim.Golden; the inputs are the recorded ones.
func (g *replayGolden) Step(map[string]bitvec.Vec) map[string]bitvec.Vec {
	out := g.expected[g.next]
	g.next++
	return out
}

// Compiles reports whether src parses and elaborates: the compile test of
// pass@k scoring. It is compiler.Frontend through the package oracle
// cache, so a candidate that is then checked is lexed only once.
func Compiles(src string) bool {
	_, design, _ := oracle.Frontend(src)
	return design != nil
}

// Check runs the problem's testbench, drawn from rng, against a
// candidate design: NewTestbench followed by CheckObserved. Callers that
// score many candidates against one (problem, seed) build the Testbench
// once and call CheckObserved.
func (p *Problem) Check(candidate string, rng *rand.Rand) (sim.TBResult, error) {
	tb, err := p.NewTestbench(rng)
	if err != nil {
		return sim.TBResult{}, err
	}
	return p.CheckObserved(candidate, tb, sim.TBObserve{})
}

// CheckObserved runs a testbench built by p.NewTestbench against a
// candidate design, with simulation-layer observability attached for the
// run: a waveform recorder (marked at the first mismatch), toggle/activity
// coverage, or an engine execution profile. A zero TBObserve observes
// nothing. Compilation — frontend and engine lowering — is amortized
// through the package cache, so rechecking a seen candidate costs only
// the simulation itself.
func (p *Problem) CheckObserved(candidate string, tb *Testbench, obs sim.TBObserve) (sim.TBResult, error) {
	if tb.p != p {
		return sim.TBResult{}, fmt.Errorf("problem %s: testbench was built for %s", p.ID, tb.p.ID)
	}
	prog, design, diags, err := oracle.Program(candidate)
	if design == nil {
		return sim.TBResult{}, fmt.Errorf("candidate does not compile: %s", diags.Summary())
	}
	if err != nil {
		return sim.TBResult{}, err
	}
	golden := &replayGolden{expected: tb.expected}
	return sim.RunTestbenchObserved(sim.NewFromProgram(prog), p.Clock, tb.vectors, golden, obs)
}

// ---------- suite access ----------

var registry = map[Suite][]*Problem{}

func register(p *Problem) {
	registry[p.Suite] = append(registry[p.Suite], p)
}

// Problems returns the suite's problems in stable ID order.
func Problems(s Suite) []*Problem {
	out := append([]*Problem(nil), registry[s]...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds a problem in a suite.
func ByID(s Suite, id string) (*Problem, bool) {
	for _, p := range registry[s] {
		if p.ID == id {
			return p, true
		}
	}
	return nil, false
}

// Stats summarizes a suite.
type Stats struct {
	Total, Easy, Hard int
}

// SuiteStats counts a suite's problems by difficulty.
func SuiteStats(s Suite) Stats {
	var st Stats
	for _, p := range registry[s] {
		st.Total++
		if p.Difficulty == Easy {
			st.Easy++
		} else {
			st.Hard++
		}
	}
	return st
}

// ---------- golden model helpers ----------

// combGolden wraps a pure function of the inputs.
func combGolden(f func(in map[string]bitvec.Vec) map[string]bitvec.Vec) func() sim.Golden {
	return func() sim.Golden { return sim.GoldenFunc(f) }
}

// u64 reads an input as uint64 (zero when missing).
func u64(in map[string]bitvec.Vec, name string) uint64 {
	if v, ok := in[name]; ok {
		return v.Uint64()
	}
	return 0
}

// vec reads an input as a bitvec (empty when missing).
func vec(in map[string]bitvec.Vec, name string) bitvec.Vec {
	if v, ok := in[name]; ok {
		return v
	}
	return bitvec.New(1)
}

// out1 builds a single-output result.
func out1(name string, width int, val uint64) map[string]bitvec.Vec {
	return map[string]bitvec.Vec{name: bitvec.FromUint64(width, val)}
}

func mask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << width) - 1
}
