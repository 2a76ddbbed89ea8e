package analyze

import (
	"repro/internal/diag"
	"repro/internal/fault"
	"repro/internal/resilience"
)

// Guard is the analyzer's panic guard on the request paths: the agent's
// compile observations and /v1/lint. Per the degradation ladder the
// analyzer is best-effort and never request-fatal, so a panic yields an
// error and no findings instead of unwinding the caller.
//
// findings is the candidate's memoized analysis (compiler.Result's
// Findings), which already recovers a real rule panic and memoizes it as
// the unit's error. Guard adds the analyze.panic fault point, rolled once
// per call and outside that memo: an injected panic never poisons the
// shared unit, and the fault registry is consulted once per observation
// whether the unit was cached or not. vlint calls Run directly and lets a
// crash be loud.
func Guard(findings func() (diag.List, error)) (diag.List, error) {
	var out diag.List
	var runErr error
	if err := resilience.Safe("analyze", func() {
		if fault.Hit(fault.AnalyzePanic) {
			panic("fault: injected analyzer panic")
		}
		out, runErr = findings()
	}); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	return out, nil
}
