package sim

import (
	"fmt"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/sema"
	"repro/internal/wave"
)

// Vector is one testbench step: the input values to drive. For clocked
// designs a vector corresponds to one clock cycle (inputs are applied,
// logic settles, then the clock pulses); for combinational designs it is
// just an input assignment.
type Vector struct {
	Inputs map[string]bitvec.Vec
}

// Golden is a cycle-accurate reference model implemented in Go. Step is
// called once per vector with the driven inputs and must return the
// expected value of every output port after the cycle completes.
type Golden interface {
	// Reset returns the model to its power-on state.
	Reset()
	// Step advances one cycle (or evaluates once, for combinational
	// models) and returns expected outputs.
	Step(inputs map[string]bitvec.Vec) map[string]bitvec.Vec
}

// GoldenFunc adapts a stateless function to the Golden interface, for
// combinational circuits.
type GoldenFunc func(inputs map[string]bitvec.Vec) map[string]bitvec.Vec

// Reset implements Golden.
func (GoldenFunc) Reset() {}

// Step implements Golden.
func (f GoldenFunc) Step(inputs map[string]bitvec.Vec) map[string]bitvec.Vec { return f(inputs) }

// TBResult summarizes a testbench run.
type TBResult struct {
	Cycles     int
	Mismatches int
	// FirstMismatch describes the first failing sample, for debug logs
	// and the (future-work) simulation-feedback experiments.
	FirstMismatch string
	// Waveform holds a VCD excerpt around the first mismatch when the
	// run was observed with a recorder and failed; empty otherwise.
	Waveform string
	// Profile is the engine execution profile when the run was observed
	// with TBObserve.Profile; nil otherwise, and on a reference simulator.
	Profile *wave.EngineProfile
}

// Passed reports whether the run completed with zero mismatches.
func (r TBResult) Passed() bool { return r.Mismatches == 0 }

// RunTestbench drives vectors through the design and compares every output
// port against the golden model. clock names the clock input for
// sequential designs, or is empty for combinational ones. A simulator
// runtime error (combinational loop, runaway for-loop) is returned as err
// and counts as a failed run.
func RunTestbench(design *sema.Design, clock string, vectors []Vector, golden Golden) (TBResult, error) {
	s, err := New(design)
	if err != nil {
		return TBResult{}, err
	}
	return RunTestbenchSim(s, clock, vectors, golden)
}

// RunTestbenchSim is RunTestbench over an existing simulator instance —
// the entry point for callers that amortize compilation through a cached
// Program (sim.NewFromProgram). The simulator is reset before the run.
func RunTestbenchSim(s *Simulator, clock string, vectors []Vector, golden Golden) (TBResult, error) {
	return RunTestbenchObserved(s, clock, vectors, golden, TBObserve{})
}

// TBObserve bundles the optional observability for one testbench run.
// The zero value observes nothing and adds no overhead.
type TBObserve struct {
	// Recorder, when non-nil, captures a waveform; it is marked at the
	// first mismatch so a bounded recorder yields the window around it,
	// and the excerpt is attached to TBResult.Waveform on failure.
	Recorder *wave.Recorder
	// Coverage, when non-nil, accumulates toggle/activity coverage over
	// the run (activation counts are folded in when the run ends).
	Coverage *wave.Coverage
	// Profile requests an engine execution profile in TBResult.Profile.
	Profile bool
}

// RunTestbenchObserved is RunTestbenchSim with observability attached
// for the duration of the run. Observers are detached before returning,
// so a cached simulator goes back to its zero-overhead configuration.
func RunTestbenchObserved(s *Simulator, clock string, vectors []Vector, golden Golden, o TBObserve) (TBResult, error) {
	var parts []wave.Observer
	if o.Recorder != nil {
		parts = append(parts, o.Recorder)
	}
	if o.Coverage != nil {
		parts = append(parts, o.Coverage)
	}
	if obs := wave.Multi(parts...); obs != nil {
		s.Observe(obs)
		defer s.Observe(nil)
	}
	if o.Profile {
		s.EnableProfile()
	} else if o.Coverage != nil {
		s.EnableActivations()
	}
	res, err := runTestbench(s, clock, vectors, golden, o.Recorder)
	if o.Coverage != nil {
		o.Coverage.AddActivations(s.Activations())
	}
	if o.Profile {
		res.Profile = s.Profile()
	}
	if o.Recorder != nil && res.Mismatches > 0 {
		res.Waveform = o.Recorder.VCD()
	}
	return res, err
}

func runTestbench(s *Simulator, clock string, vectors []Vector, golden Golden, rec *wave.Recorder) (TBResult, error) {
	design := s.Design()
	s.Reset()
	golden.Reset()
	res := TBResult{}

	outputs := design.Outputs()
	outNames := make([]string, 0, len(outputs))
	for _, o := range outputs {
		outNames = append(outNames, o.Name)
	}
	sort.Strings(outNames)

	for cyc, vec := range vectors {
		for name, v := range vec.Inputs {
			if name == clock {
				continue // the runner owns the clock
			}
			if design.Signal(name) == nil {
				return res, fmt.Errorf("testbench drives unknown input %q", name)
			}
			if err := s.SetInput(name, v); err != nil {
				return res, err
			}
		}
		if err := s.Settle(); err != nil {
			return res, err
		}
		if clock != "" {
			if err := s.ClockPulse(clock); err != nil {
				return res, err
			}
		}
		want := golden.Step(vec.Inputs)
		res.Cycles++
		for _, name := range outNames {
			wantV, ok := want[name]
			if !ok {
				continue // model does not constrain this output
			}
			gotV := s.Get(name)
			if !gotV.Eq(wantV) {
				res.Mismatches++
				if res.FirstMismatch == "" {
					res.FirstMismatch = fmt.Sprintf(
						"cycle %d: output %s = %s, expected %s", cyc, name, gotV.Hex(), wantV.Resize(gotV.Width()).Hex())
					if rec != nil {
						rec.Mark()
					}
				}
			}
		}
	}
	return res, nil
}
