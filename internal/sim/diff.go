package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/sema"
	"repro/internal/verilog"
	"repro/internal/wave"
)

// This file is the single walker-vs-engine comparison path shared by the
// unit tests, the generative fuzz harness (internal/fuzz), and the
// delta-debugging minimizer. All three must agree on what "diverges"
// means, so none of them roll their own loop.

// DiffConfig controls one differential run.
type DiffConfig struct {
	// Clock names the clock input, pulsed once per cycle after inputs
	// settle. Empty means purely combinational: settle only.
	Clock string
	// Cycles is the number of input vectors to drive. Zero defaults
	// to 16.
	Cycles int
	// Seed feeds the deterministic input-trace generator.
	Seed int64
	// MaxMismatches bounds how many mismatches are recorded before the
	// run stops. Zero defaults to 1 (stop at first divergence).
	MaxMismatches int
	// Coverage, when non-nil, accumulates toggle/activity coverage from
	// the engine side of the run — the signal the coverage-guided fuzzer
	// feeds on.
	Coverage *wave.Coverage
	// Recorder, when non-nil, captures an engine-side waveform; it is
	// marked at the first divergence, so a bounded recorder yields the
	// window around it.
	Recorder *wave.Recorder
}

// Mismatch is one signal disagreement between the two backends.
type Mismatch struct {
	Cycle  int
	Signal string
	Engine string // hex value from the compiled engine
	Walker string // hex value from the tree-walker
	Final  bool   // found during the final full-state sweep
}

func (m Mismatch) String() string {
	where := fmt.Sprintf("cycle %d", m.Cycle)
	if m.Final {
		where = "final state"
	}
	return fmt.Sprintf("%s: %s: engine=%s walker=%s", where, m.Signal, m.Engine, m.Walker)
}

// DiffReport accumulates the outcome of a differential run.
type DiffReport struct {
	Cycles     int // cycles actually driven
	Compared   int // signal comparisons performed
	Mismatches []Mismatch
	// Halted is set when both backends agreed to fail (settle limit,
	// loop limit); the run stops early but is not a divergence.
	Halted bool
}

// Diverged reports whether the two backends disagreed anywhere.
func (r *DiffReport) Diverged() bool { return len(r.Mismatches) > 0 }

// First returns the first recorded mismatch, or a zero Mismatch.
func (r *DiffReport) First() Mismatch {
	if len(r.Mismatches) == 0 {
		return Mismatch{}
	}
	return r.Mismatches[0]
}

// DiffSource parses, elaborates, and differentially runs src. Frontend
// or compile rejection returns an error (callers treat that as "skip",
// not as a divergence).
func DiffSource(src string, cfg DiffConfig) (*DiffReport, error) {
	file, diags := verilog.Parse(src)
	if diags.HasErrors() {
		return nil, fmt.Errorf("parse: %s", diags.Summary())
	}
	design, diags := sema.Elaborate(file)
	if diags.HasErrors() {
		return nil, fmt.Errorf("elaborate: %s", diags.Summary())
	}
	return DiffDesign(design, cfg)
}

// DiffDesign runs design through the compiled engine and the
// tree-walker, driving Cycles random input vectors from Seed, comparing
// every signal after each settle/clock step and the full state at the
// end. A non-nil error means the design could not be built or the
// backends disagreed about halting; divergences are reported via the
// DiffReport, not the error.
func DiffDesign(design *sema.Design, cfg DiffConfig) (*DiffReport, error) {
	if cfg.Cycles <= 0 {
		cfg.Cycles = 16
	}
	if cfg.MaxMismatches <= 0 {
		cfg.MaxMismatches = 1
	}
	prog, err := Compile(design)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	eng := NewFromProgram(prog)
	wlk := NewReference(design)
	var parts []wave.Observer
	if cfg.Recorder != nil {
		parts = append(parts, cfg.Recorder)
	}
	if cfg.Coverage != nil {
		parts = append(parts, cfg.Coverage)
	}
	if obs := wave.Multi(parts...); obs != nil {
		eng.Observe(obs)
	}
	if cfg.Coverage != nil {
		eng.EnableActivations()
		defer func() { cfg.Coverage.AddActivations(eng.Activations()) }()
	}

	// Sorted signal order keeps mismatch reporting deterministic
	// across runs — essential for the minimizer's re-check loop.
	names := make([]string, 0, len(design.Signals))
	for name := range design.Signals {
		names = append(names, name)
	}
	sort.Strings(names)

	rep := &DiffReport{}
	rng := rand.New(rand.NewSource(cfg.Seed))
	inputs := design.Inputs()
	for cyc := 0; cyc < cfg.Cycles; cyc++ {
		for _, in := range inputs {
			if in.Name == cfg.Clock {
				continue
			}
			v := bitvec.New(in.Width())
			for b := 0; b < in.Width(); b++ {
				if rng.Intn(2) == 1 {
					v.SetBitInPlace(b, true)
				}
			}
			if err := eng.SetInput(in.Name, v); err != nil {
				return nil, err
			}
			if err := wlk.SetInput(in.Name, v); err != nil {
				return nil, err
			}
		}
		errE, errW := eng.Settle(), wlk.Settle()
		if (errE == nil) != (errW == nil) {
			return rep, fmt.Errorf("cycle %d: settle disagreement: engine=%v walker=%v", cyc, errE, errW)
		}
		if errE != nil {
			// Both hit the settle limit: agreed halt, not a bug.
			rep.Halted = true
			return rep, nil
		}
		if cfg.Clock != "" {
			if errE, errW = eng.ClockPulse(cfg.Clock), wlk.ClockPulse(cfg.Clock); (errE == nil) != (errW == nil) {
				return rep, fmt.Errorf("cycle %d: clock disagreement: engine=%v walker=%v", cyc, errE, errW)
			}
			if errE != nil {
				rep.Halted = true
				return rep, nil
			}
		}
		rep.Cycles++
		for _, name := range names {
			ev, wv := eng.Get(name), wlk.Get(name)
			rep.Compared++
			if !ev.Eq(wv) {
				rep.Mismatches = append(rep.Mismatches, Mismatch{
					Cycle: cyc, Signal: name, Engine: ev.Hex(), Walker: wv.Hex(),
				})
				if cfg.Recorder != nil {
					cfg.Recorder.Mark()
				}
				if len(rep.Mismatches) >= cfg.MaxMismatches {
					return rep, nil
				}
			}
		}
	}
	// Final full-state sweep: catches divergence in state that the
	// per-cycle loop already covered, but keeps the contract explicit
	// ("outputs per cycle + final state").
	for _, name := range names {
		ev, wv := eng.Get(name), wlk.Get(name)
		rep.Compared++
		if !ev.Eq(wv) {
			rep.Mismatches = append(rep.Mismatches, Mismatch{
				Cycle: rep.Cycles, Signal: name, Engine: ev.Hex(), Walker: wv.Hex(), Final: true,
			})
			if cfg.Recorder != nil {
				cfg.Recorder.Mark()
			}
			if len(rep.Mismatches) >= cfg.MaxMismatches {
				return rep, nil
			}
		}
	}
	return rep, nil
}
