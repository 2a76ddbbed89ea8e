// Package sim is a two-phase cycle simulator for elaborated Verilog
// designs: combinational settling to a fixpoint plus clocked updates with
// non-blocking-assignment semantics. It is the functional-correctness
// oracle behind the paper's pass@k measurements — a problem's testbench
// drives input vectors through the design and compares outputs against the
// problem's reference model.
//
// The simulator is two-state (no X/Z). Registers reset to zero, which the
// benchmark's testbenches account for by driving a reset sequence first.
//
// Compile lowers the elaborated design once — every signal interned into
// a dense slot index, every assign and always block flattened into an
// instruction sequence over those slots, combinational processes
// scheduled in dependency (topological) order with bounded fixpoint
// iteration reserved for genuine cycles. Steady-state cycles run with
// zero heap allocations on designs up to 64 bits wide. Compiled Programs
// are immutable and shareable; NewFromProgram makes the per-run
// instantiation cheap. A design Compile rejects is not simulable.
//
// The original AST interpreter (the tree-walker, walker.go) is kept as a
// reference oracle only: NewReference builds it, and nothing outside the
// differential path and tests runs it.
//
// DiffSource and DiffDesign are the shared differential path holding the
// engine to the reference: both instantiated on one design, driven
// with identical seeded random inputs, every signal compared every cycle
// plus the full state at the end. The unit tests, the permanent
// regression table (engine_regress_test.go), the native
// FuzzDifferential target, and the internal/fuzz campaign runner and
// minimizer all funnel through it.
//
// The facade is also the observability hook point: Observe attaches a
// wave.Observer that receives one full-signal snapshot after every
// successful Settle (waveform capture, toggle coverage), and
// EnableProfile/EnableActivations expose the engine's opcode histogram,
// fixpoint iteration counts, and per-process activation counters. All of
// it is opt-in and nil-guarded: with nothing attached the hot path pays a
// single nil check per settle, and the engine's steady-state
// zero-allocation guarantee is unchanged (pinned by AllocsPerRun tests).
package sim

import (
	"repro/internal/bitvec"
	"repro/internal/fault"
	"repro/internal/resilience"
	"repro/internal/sema"
	"repro/internal/wave"
)

// settleLimit bounds combinational fixpoint iteration; exceeding it means a
// combinational loop (oscillation).
const settleLimit = 64

// loopLimit bounds procedural for-loop trip counts so a runaway loop in
// generated code cannot hang the benchmark harness.
const loopLimit = 1 << 16

// backend is the contract the engine and the reference walker implement.
// ClockPulse is built on top of these in the facade so both share
// identical clocking semantics.
type backend interface {
	Reset()
	Get(name string) bitvec.Vec
	SetInput(name string, v bitvec.Vec) error
	SetInputUint(name string, v uint64) error
	Settle() error
	// setWatchdog arms the budget checked inside the settle fixpoint
	// loop, so a runaway settle is canceled mid-iteration, not merely
	// at the next cycle boundary.
	setWatchdog(*resilience.Watchdog)
}

// Simulator is one design instance. It delegates to the compiled engine,
// or to the walker when built by NewReference; the API and observable
// signal values are identical either way.
type Simulator struct {
	design *sema.Design
	b      backend
	wd     *resilience.Watchdog

	// Observation state (observe.go). obs is nil unless an observer is
	// attached; obsNames/obsVals are the preallocated snapshot carriers
	// so sampling itself does not allocate.
	obs      wave.Observer
	obsNames []string
	obsVals  []bitvec.Vec
	obsTime  uint64
}

// SetWatchdog arms (or, with nil, disarms) a wall-clock/cycle budget on
// this simulator. Every Settle — including the three inside ClockPulse —
// consumes one watchdog step, and both backends check the budget inside
// their fixpoint loops. A nil watchdog costs nothing on the hot path.
func (s *Simulator) SetWatchdog(wd *resilience.Watchdog) {
	s.wd = wd
	s.b.setWatchdog(wd)
}

// New compiles the design and builds a simulator over it. It fails with
// Compile's error (a *CompileError for an unsupported construct) when the
// design is nil or cannot be compiled.
func New(design *sema.Design) (*Simulator, error) {
	prog, err := Compile(design)
	if err != nil {
		return nil, err
	}
	return NewFromProgram(prog), nil
}

// NewFromProgram instantiates a simulator over an already-compiled
// program. The program is immutable and may be shared across goroutines;
// each call returns independent mutable state, so a cached Program turns
// the per-testbench-run cost into a single allocation pass.
func NewFromProgram(p *Program) *Simulator {
	return &Simulator{design: p.design, b: newEngine(p)}
}

// NewReference builds a simulator over a non-nil design, backed by the
// tree-walking reference interpreter — the oracle DiffDesign holds the
// engine to.
func NewReference(design *sema.Design) *Simulator {
	return &Simulator{design: design, b: newWalkerSim(design)}
}

// Design returns the elaborated design the simulator runs.
func (s *Simulator) Design() *sema.Design { return s.design }

// Reset zeroes every signal and re-applies declaration initializers.
func (s *Simulator) Reset() { s.b.Reset() }

// Get returns the current value of a signal (zero vector for unknown
// names, so probing never panics mid-benchmark). The returned vector is
// valid until the next simulator mutation; callers that retain values
// across cycles must copy them.
func (s *Simulator) Get(name string) bitvec.Vec { return s.b.Get(name) }

// SetInput drives an input port. Edges produced by the change trigger
// edge-sensitive always blocks whose sensitivity list mentions the signal
// (asynchronous resets).
func (s *Simulator) SetInput(name string, v bitvec.Vec) error { return s.b.SetInput(name, v) }

// SetInputUint drives an input port from a uint64.
func (s *Simulator) SetInputUint(name string, v uint64) error { return s.b.SetInputUint(name, v) }

// Settle evaluates continuous assigns and combinational always blocks to a
// fixpoint. With a watchdog armed it consumes one step and enforces the
// budget; the sim.stall fault point can inject a stall here.
func (s *Simulator) Settle() error {
	fault.Delay(fault.SimStall)
	if err := s.wd.Step(1); err != nil {
		return err
	}
	if err := s.b.Settle(); err != nil {
		return err
	}
	if s.obs != nil {
		s.sample()
	}
	return nil
}

// ClockPulse produces a full 0→1→0 pulse on the named signal. Combinational
// logic settles before the rising edge (so next-state logic sees the inputs
// driven since the last cycle), and again after each edge.
func (s *Simulator) ClockPulse(name string) error {
	if err := s.Settle(); err != nil {
		return err
	}
	if err := s.b.SetInputUint(name, 1); err != nil {
		return err
	}
	if err := s.Settle(); err != nil {
		return err
	}
	if err := s.b.SetInputUint(name, 0); err != nil {
		return err
	}
	return s.Settle()
}
