// Per-job recording and tracing hooks shared by every bench experiment,
// plus the label scheme that names one exact experiment configuration.
//
// A journal installed with SetJournal receives every successfully
// completed agent job through the pipeline's per-job completion hook,
// labeled with the experiment and the full fixer configuration, so an
// external harness can check each job's outcome without parsing tables.
package bench

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// journal is the package-wide per-job recorder (nil = recording off).
// Set once by SetJournal before any experiment runs.
var journal pipeline.Journal

// SetJournal installs the journal every bench experiment records its
// completed jobs to. Pass nil to disable. Call before running
// experiments.
func SetJournal(j pipeline.Journal) { journal = j }

// tracer is the package-wide trace collector (nil = tracing off). Set
// once by SetTracer before any experiment runs.
var tracer *trace.Collector

// SetTracer installs a trace collector on every bench pipeline run, so
// each agent job records a stage-level span tree (cmd/benchmark's
// -stages breakdown). Pass nil to disable — the default, which keeps
// experiment hot paths allocation-free and table output untouched.
func SetTracer(c *trace.Collector) { tracer = c }

// runJobs funnels every bench pipeline run through the package tracer
// and, when one is set, records each successful completion (Err nil,
// transcript present) to the package journal under label. Canceled and
// timed-out jobs are never recorded.
func runJobs(ctx context.Context, label string, cfg pipeline.Config, jobs []pipeline.Job, fn pipeline.FixFunc) ([]pipeline.Result, error) {
	cfg.Tracer = tracer
	if j := journal; j != nil {
		onResult := cfg.OnResult
		cfg.OnResult = func(r pipeline.Result) {
			if r.Err == nil && r.Transcript != nil {
				j.Record(label, r.Job, pipeline.OutcomeOf(r))
			}
			if onResult != nil {
				onResult(r)
			}
		}
	}
	return pipeline.Run(ctx, cfg, jobs, fn)
}

// fixerLabel fingerprints a fixer configuration for job labels:
// everything that selects agent behaviour beyond the job fields. The
// cache flag is deliberately absent — output is byte-identical with the
// cache on or off.
func fixerLabel(f *core.RTLFixer) string {
	o := f.Options()
	ret := "default"
	if o.Retriever != nil {
		ret = o.Retriever.Name()
	}
	return fmt.Sprintf("mode=%s,rag=%v,comp=%s,llm=%s,iters=%d,seed=%d,ret=%s,analyze=%v",
		o.Mode, o.RAG, o.CompilerName, o.PersonaName, o.MaxIterations, o.Seed, ret, !o.DisableAnalyzer)
}
