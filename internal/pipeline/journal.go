// Per-job recording: a caller-supplied Journal receives the essence of
// every completed job (success, iteration count, final code, fixer rules,
// lint findings, elapsed), which is exactly the set of fields the summary
// layer and the bench tables consume. The bench layer records through it
// from the per-job completion hook, so an external harness can check a
// run's results without parsing its tables.
package pipeline

// Outcome is the recorded essence of one job completion.
type Outcome struct {
	Success    bool
	Iterations int
	FinalCode  string
	FixerRules []string
	// LintFindings is the transcript's analyzer-findings count.
	LintFindings int
	// ElapsedNS is the job's wall-clock time.
	ElapsedNS int64
}

// Journal receives job outcomes. The label scopes the job to one exact
// run configuration. Implementations must be safe for concurrent use
// (Record calls arrive from the completion hook, which is serialized per
// run, but concurrent runs may interleave).
type Journal interface {
	Record(label string, j Job, o Outcome)
}

// OutcomeOf extracts the recorded essence of a completed result.
func OutcomeOf(r Result) Outcome {
	return Outcome{
		Success:      r.Transcript.Success,
		Iterations:   r.Transcript.Iterations,
		FinalCode:    r.Transcript.FinalCode,
		FixerRules:   r.Transcript.FixerRules,
		LintFindings: r.Transcript.LintFindings,
		ElapsedNS:    int64(r.Elapsed),
	}
}
