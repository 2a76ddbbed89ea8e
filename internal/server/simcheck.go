// Post-fix simulation smoke check: a successful /v1/fix's final code is
// elaborated and pulsed for one clock cycle before the response is
// published. The serving path otherwise never exercises the simulation
// engine — compiler personas are string-rendering frontends — so this is
// both a cheap behavioral sanity signal ("the fixed design elaborates,
// settles, and survives a clock edge") and the hook that gives request
// traces their sim stage. The response body is byte-identical with the
// check on or off; outcomes surface only in /v1/stats, /metrics, and the
// request trace.
package server

import (
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/resilience"
	"repro/internal/sema"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wave"
)

// Watchdog budgets for one smoke check: the settle-plus-one-pulse run is
// microseconds on healthy designs, so these bounds only ever trip on a
// runaway (or fault-injected) simulation.
const (
	simCheckWall  = 2 * time.Second
	simCheckSteps = 64
)

// simCheck runs the smoke check behind a panic guard: the check is a
// best-effort signal on the degradation ladder, so a panicking engine
// (or a fault-injected one) skips the feature instead of failing the
// whole agent run it rides on.
func (s *Server) simCheck(tr *agent.Transcript, parent *trace.Span) {
	if err := resilience.Safe("simcheck", func() { s.runSimCheck(tr, parent) }); err != nil {
		s.st.simSkipped.Inc()
		s.cfg.logf("server: sim check panicked (isolated): %v", err)
	}
}

// runSimCheck is the smoke check for one finished agent run, recording
// the outcome under a "sim" child of parent. Sources that do not
// elaborate (the personas accept code the stricter sim frontend
// rejects) and designs the compiled engine rejects are counted as
// skipped, not failed; a simulation that blows its watchdog budget is
// canceled and counted, never request-fatal. The shared SimCache means
// a coalesced-or-repeated source pays frontend+compile once.
func (s *Server) runSimCheck(tr *agent.Transcript, parent *trace.Span) {
	if s.simCache == nil || tr == nil || !tr.Success {
		return
	}
	sp := parent.Child("sim")
	defer sp.End()
	s.st.simChecks.Inc()

	prog, design, _, _ := s.simCache.Program(tr.FinalCode)
	switch {
	case design == nil:
		sp.SetStr("result", "not_elaborable")
		s.st.simSkipped.Inc()
		return
	case prog == nil:
		sp.SetStr("result", "not_simulable")
		s.st.simSkipped.Inc()
		return
	}
	sm := sim.NewFromProgram(prog)

	sm.SetWatchdog(resilience.NewWatchdog(simCheckWall, simCheckSteps))
	if s.simObs != nil {
		// Observe the check regardless of outcome: coverage plus the
		// engine's execution profile. The fold runs deferred so
		// watchdog/settle exits still report.
		cov := wave.NewCoverage()
		sm.Observe(cov)
		sm.EnableProfile()
		defer func() {
			cov.AddActivations(sm.Activations())
			s.simObs.fold(cov, sm.Profile())
			sp.SetStr("coverage", cov.Stats().String())
		}()
	}
	if err := sm.Settle(); err != nil {
		if resilience.IsWatchdog(err) {
			sp.SetStr("result", "watchdog")
			s.st.simWatchdog.Inc()
			return
		}
		sp.SetStr("result", "settle_error")
		s.st.simFailed.Inc()
		return
	}
	if clk := clockInput(sm.Design()); clk != "" {
		sp.SetStr("clock", clk)
		if err := sm.ClockPulse(clk); err != nil {
			if resilience.IsWatchdog(err) {
				sp.SetStr("result", "watchdog")
				s.st.simWatchdog.Inc()
				return
			}
			sp.SetStr("result", "clock_error")
			s.st.simFailed.Inc()
			return
		}
	}
	sp.SetStr("result", "ok")
	s.st.simPassed.Inc()
}

// clockInput finds the design's clock-looking input port, if any.
func clockInput(d *sema.Design) string {
	for _, in := range d.Inputs() {
		switch strings.ToLower(in.Name) {
		case "clk", "clock":
			return in.Name
		}
	}
	return ""
}
