// Observability endpoints: Prometheus text exposition at GET /metrics
// and the request-trace surface at GET /v1/trace (recent + slow-retained
// list) and GET /v1/trace/{id} (one full span tree). Both read the same
// atomics and snapshots /v1/stats reads — the monitoring plane never
// contends with serving.
package server

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// handleMetrics serves GET /metrics in Prometheus exposition format
// 0.0.4. Family names carry the rtlfixer_ prefix; histograms are the
// serving latency histograms plus, when tracing is on, the per-stage
// duration histograms folded from finished request traces.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", metrics.PromContentType)
	p := metrics.NewPromWriter(w)
	st := &s.st

	p.Counter("rtlfixer_fix_requests_total", "Fix requests received.", st.fixRequests.Value())
	p.Counter("rtlfixer_lint_requests_total", "Lint requests received.", st.lintRequests.Value())
	p.Counter("rtlfixer_healthz_requests_total", "Health checks received.", st.healthzRequests.Value())
	p.Counter("rtlfixer_stats_requests_total", "Stats requests received.", st.statsRequests.Value())

	var codes []metrics.PromSample
	for _, code := range statusCodes {
		if v := st.status[code].Value(); v > 0 {
			codes = append(codes, metrics.PromSample{
				Labels: []metrics.PromLabel{{Name: "code", Value: strconv.Itoa(code)}},
				Value:  float64(v),
			})
		}
	}
	if v := st.statusOther.Value(); v > 0 {
		codes = append(codes, metrics.PromSample{
			Labels: []metrics.PromLabel{{Name: "code", Value: "other"}},
			Value:  float64(v),
		})
	}
	p.CounterVec("rtlfixer_http_responses_total", "HTTP responses by status code.", codes)

	p.CounterVec("rtlfixer_fix_outcomes_total", "Fix request outcomes.", []metrics.PromSample{
		outcomeSample("ok", st.fixOK.Value()),
		outcomeSample("failed", st.fixFailed.Value()),
		outcomeSample("coalesced", st.coalesced.Value()),
		outcomeSample("expired_before_run", st.expiredBeforeRun.Value()),
		outcomeSample("deadline_expired", st.deadlineExpired.Value()),
		outcomeSample("rejected_queue_full", st.rejectedQueueFull.Value()),
		outcomeSample("rejected_draining", st.rejectedDraining.Value()),
	})
	p.Counter("rtlfixer_agent_runs_total", "Agent debugging loops executed.", st.agentRuns.Value())

	p.Counter("rtlfixer_dispatch_batches_total", "Dispatch batches formed.", st.batches.Value())
	p.Counter("rtlfixer_dispatch_batched_jobs_total", "Jobs carried by dispatch batches.", st.batchedJobs.Value())
	p.Gauge("rtlfixer_dispatch_max_batch", "Largest batch dispatched so far.", float64(st.maxBatch.Value()))

	p.Gauge("rtlfixer_queue_depth", "Admitted fix requests not yet running.", float64(st.queueDepth.Value()))
	p.Gauge("rtlfixer_in_flight", "Agent runs executing now.", float64(st.inFlight.Value()))
	p.Gauge("rtlfixer_draining", "1 while the server refuses new fix work.", boolGauge(s.isDraining()))
	p.Gauge("rtlfixer_uptime_seconds", "Seconds since the server started.", msSince(s.start)/1000)
	p.Gauge("rtlfixer_fixer_configs", "Distinct pooled fixer configurations.", float64(s.Fixers()))

	p.Histogram("rtlfixer_fix_latency_ms", "Fix request latency, milliseconds.", st.fixLatency.Snapshot())
	p.Histogram("rtlfixer_lint_latency_ms", "Lint request latency, milliseconds.", st.lintLatency.Snapshot())

	byKind := memo.TotalsByKind()
	p.CounterVec("rtlfixer_cache_events_total", "Memoization events by cache layer.",
		append(append(
			cacheSamples("compile", byKind.Compile),
			cacheSamples("sim", byKind.Sim)...),
			cacheSamples("retrieval", byKind.Retrieval)...))

	var rules []metrics.PromSample
	for _, code := range st.findingRules {
		rules = append(rules, metrics.PromSample{
			Labels: []metrics.PromLabel{{Name: "rule", Value: code}},
			Value:  float64(st.findingsByRule[code].Value()),
		})
	}
	if v := st.findingsOther.Value(); v > 0 {
		rules = append(rules, metrics.PromSample{
			Labels: []metrics.PromLabel{{Name: "rule", Value: "other"}},
			Value:  float64(v),
		})
	}
	p.CounterVec("rtlfixer_lint_findings_total", "Analyzer findings served via /v1/lint, by rule.", rules)

	p.CounterVec("rtlfixer_sim_checks_total", "Post-fix simulation smoke checks by result.", []metrics.PromSample{
		{Labels: []metrics.PromLabel{{Name: "result", Value: "passed"}}, Value: float64(st.simPassed.Value())},
		{Labels: []metrics.PromLabel{{Name: "result", Value: "failed"}}, Value: float64(st.simFailed.Value())},
		{Labels: []metrics.PromLabel{{Name: "result", Value: "skipped"}}, Value: float64(st.simSkipped.Value())},
		{Labels: []metrics.PromLabel{{Name: "result", Value: "watchdog"}}, Value: float64(st.simWatchdog.Value())},
	})

	if s.simObs != nil {
		frac, runs, toggles, instructions := s.simObs.coverageGauge()
		p.Gauge("rtlfixer_sim_toggle_coverage", "Toggle+activation coverage fraction of the latest observed sim check.", frac)
		p.Counter("rtlfixer_sim_observed_runs_total", "Sim smoke checks run with coverage observation attached.", runs)
		p.Counter("rtlfixer_sim_toggles_total", "Signal bit-toggle events across observed sim checks.", toggles)
		p.Counter("rtlfixer_sim_instructions_total", "Compiled-engine instructions executed across observed sim checks.", instructions)
	}

	// Resilience plane.
	p.CounterVec("rtlfixer_panics_recovered_total", "Panics recovered by bulkhead site.", []metrics.PromSample{
		{Labels: []metrics.PromLabel{{Name: "site", Value: "http"}}, Value: float64(st.panicsHTTP.Value())},
		{Labels: []metrics.PromLabel{{Name: "site", Value: "worker"}}, Value: float64(st.panicsWorker.Value())},
	})
	p.Counter("rtlfixer_breaker_rejected_total", "Fix requests fast-failed by an open circuit breaker.", st.breakerRejected.Value())
	p.CounterVec("rtlfixer_llm_runs_total", "Agent runs by LLM-backend resilience event.", []metrics.PromSample{
		{Labels: []metrics.PromLabel{{Name: "event", Value: "retried"}}, Value: float64(st.llmRetriedRuns.Value())},
		{Labels: []metrics.PromLabel{{Name: "event", Value: "recovered"}}, Value: float64(st.llmRetryRecovered.Value())},
		{Labels: []metrics.PromLabel{{Name: "event", Value: "aborted"}}, Value: float64(st.llmAborted.Value())},
	})
	p.CounterVec("rtlfixer_brownout_shed_total", "Best-effort work shed under overload, by surface.", []metrics.PromSample{
		{Labels: []metrics.PromLabel{{Name: "surface", Value: "lint"}}, Value: float64(st.brownoutLintShed.Value())},
		{Labels: []metrics.PromLabel{{Name: "surface", Value: "trace"}}, Value: float64(st.brownoutTracesShed.Value())},
	})
	p.Gauge("rtlfixer_ready", "1 once the server passes /v1/readyz gating (prewarm done, not draining).", boolGauge(s.ready.Load() && !s.isDraining()))

	if s.stages != nil {
		snap := s.stages.Snapshot()
		series := make([]metrics.PromHistSeries, 0, len(snap))
		for _, stage := range trace.StageNames(snap) {
			series = append(series, metrics.PromHistSeries{
				Labels: []metrics.PromLabel{{Name: "stage", Value: stage}},
				Snap:   snap[stage],
			})
		}
		p.HistogramVec("rtlfixer_stage_duration_ms", "Span durations per pipeline stage, milliseconds.", series)
	}
	if s.tracer != nil {
		occ := s.tracer.Occupancy()
		p.Counter("rtlfixer_traces_collected_total", "Request traces finished and collected.", occ.Collected)
		p.Gauge("rtlfixer_trace_ring_occupancy", "Traces held in the recent-trace ring.", float64(occ.Ring))
		p.Gauge("rtlfixer_trace_ring_capacity", "Capacity of the recent-trace ring.", float64(occ.RingCap))
		p.Gauge("rtlfixer_trace_slow_retained", "Slow traces retained past ring eviction.", float64(occ.Slow))
	}
	_ = p.Err() // sticky; nothing useful to do mid-response
}

func outcomeSample(outcome string, v uint64) metrics.PromSample {
	return metrics.PromSample{
		Labels: []metrics.PromLabel{{Name: "outcome", Value: outcome}},
		Value:  float64(v),
	}
}

func cacheSamples(layer string, st memo.Stats) []metrics.PromSample {
	label := func(event string) []metrics.PromLabel {
		return []metrics.PromLabel{{Name: "layer", Value: layer}, {Name: "event", Value: event}}
	}
	return []metrics.PromSample{
		{Labels: label("hit"), Value: float64(st.Hits)},
		{Labels: label("miss"), Value: float64(st.Misses)},
		{Labels: label("eviction"), Value: float64(st.Evictions)},
		{Labels: label("lookup"), Value: float64(st.Lookups)},
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// traceListResponse is the GET /v1/trace body.
type traceListResponse struct {
	Enabled   bool            `json:"enabled"`
	Occupancy trace.Occupancy `json:"occupancy"`
	Traces    []trace.Summary `json:"traces"`
}

// handleTraceList serves GET /v1/trace: newest-first summaries of the
// retained traces (ring plus slow tier), bounded by ?limit=N.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	resp := traceListResponse{Enabled: s.tracer != nil, Traces: []trace.Summary{}}
	if s.tracer == nil {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	limit := 0
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	resp.Occupancy = s.tracer.Occupancy()
	if got := s.tracer.Summaries(limit); got != nil {
		resp.Traces = got
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTraceGet serves GET /v1/trace/{id}: the full span tree of one
// retained trace.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.tracer == nil {
		writeError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if id == "" || strings.ContainsRune(id, '/') {
		writeError(w, http.StatusNotFound, "trace id required: /v1/trace/{id}")
		return
	}
	tr, ok := s.tracer.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "trace %q not retained (evicted or never collected)", id)
		return
	}
	writeJSON(w, http.StatusOK, tr.JSON())
}

// buildSummary reports what binary is serving: Go toolchain, module
// version, and VCS revision when stamped (debug.ReadBuildInfo).
func buildSummary() map[string]string {
	b := map[string]string{"go": runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b["module"] = info.Main.Path
	if info.Main.Version != "" {
		b["version"] = info.Main.Version
	}
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			b["revision"] = kv.Value
		case "vcs.time":
			b["vcs_time"] = kv.Value
		}
	}
	return b
}
