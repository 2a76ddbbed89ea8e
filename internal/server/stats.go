// Live metrics for the fix service, surfaced at GET /v1/stats: request
// and status counters, fix/lint latency histograms (internal/metrics),
// queue and in-flight gauges, dispatch batching figures, and the
// process-wide memoization counters (memo.Totals). Everything is cheap
// atomics — the monitoring plane never contends with the serving plane.
package server

import (
	"net/http"
	"strconv"

	"repro/internal/analyze"
	"repro/internal/fault"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// statusCodes are the statuses the service can emit; anything else lands
// in the "other" bucket.
var statusCodes = []int{200, 400, 404, 405, 413, 429, 500, 502, 503, 504}

// serverStats holds every live counter. Fields are written with atomics;
// Snapshot reads are not a consistent cut across fields (each field is
// individually exact), which is fine for monitoring.
type serverStats struct {
	fixRequests     metrics.Counter
	lintRequests    metrics.Counter
	healthzRequests metrics.Counter
	readyzRequests  metrics.Counter
	statsRequests   metrics.Counter

	status      map[int]*metrics.Counter
	statusOther metrics.Counter

	fixOK             metrics.Counter
	fixFailed         metrics.Counter
	coalesced         metrics.Counter
	agentRuns         metrics.Counter
	expiredBeforeRun  metrics.Counter
	deadlineExpired   metrics.Counter
	rejectedQueueFull metrics.Counter
	rejectedDraining  metrics.Counter

	batches     metrics.Counter
	batchedJobs metrics.Counter
	maxBatch    metrics.Gauge

	queueDepth metrics.Gauge
	inFlight   metrics.Gauge

	fixLatency  *metrics.Histogram
	lintLatency *metrics.Histogram

	// findingsByRule counts analyzer findings served through /v1/lint,
	// keyed by rule code. The key set is fixed at init from the static
	// rule registry, so the counters are lock-free; codes outside the
	// registry land in findingsOther. findingRules holds the codes in
	// registry order for stable /metrics exposition.
	findingsByRule map[string]*metrics.Counter
	findingRules   []string
	findingsOther  metrics.Counter

	// Post-fix simulation smoke checks (simcheck.go): attempted, and the
	// passed/failed/skipped split. Skipped means the fixed code does not
	// elaborate under the stricter sim frontend — expected for a subset
	// of persona-accepted sources, not an error.
	simChecks  metrics.Counter
	simPassed  metrics.Counter
	simFailed  metrics.Counter
	simSkipped metrics.Counter

	// Resilience plane: recovered panics by bulkhead, circuit-breaker
	// fast-fails, the in-agent LLM retry ledger, brownout shedding, and
	// sim-check watchdog trips.
	panicsHTTP         metrics.Counter
	panicsWorker       metrics.Counter
	breakerRejected    metrics.Counter
	llmRetriedRuns     metrics.Counter
	llmRetryRecovered  metrics.Counter
	llmAborted         metrics.Counter
	brownoutLintShed   metrics.Counter
	brownoutTracesShed metrics.Counter
	simWatchdog        metrics.Counter
}

func (st *serverStats) init() {
	st.status = make(map[int]*metrics.Counter, len(statusCodes))
	for _, code := range statusCodes {
		st.status[code] = &metrics.Counter{}
	}
	st.fixLatency = metrics.NewLatencyHistogram()
	st.lintLatency = metrics.NewLatencyHistogram()
	st.findingsByRule = make(map[string]*metrics.Counter, len(analyze.Rules()))
	for _, r := range analyze.Rules() {
		st.findingsByRule[r.Code] = &metrics.Counter{}
		st.findingRules = append(st.findingRules, r.Code)
	}
}

func (st *serverStats) countFinding(rule string) {
	if c, ok := st.findingsByRule[rule]; ok {
		c.Inc()
		return
	}
	st.findingsOther.Inc()
}

func (st *serverStats) countStatus(code int) {
	if c, ok := st.status[code]; ok {
		c.Inc()
		return
	}
	st.statusOther.Inc()
}

// recordBatchSize keeps a running maximum of dispatch batch sizes.
func (st *serverStats) recordBatchSize(n int) { st.maxBatch.Max(int64(n)) }

// StatsSnapshot is the GET /v1/stats response body.
type StatsSnapshot struct {
	UptimeMS float64 `json:"uptime_ms"`

	Requests struct {
		Fix     uint64 `json:"fix"`
		Lint    uint64 `json:"lint"`
		Healthz uint64 `json:"healthz"`
		Readyz  uint64 `json:"readyz"`
		Stats   uint64 `json:"stats"`
	} `json:"requests"`

	// Status maps HTTP status code (as a string, for JSON) to count.
	Status map[string]uint64 `json:"status"`

	Fix struct {
		OK                uint64 `json:"ok"`
		Failed            uint64 `json:"failed"`
		Coalesced         uint64 `json:"coalesced"`
		AgentRuns         uint64 `json:"agent_runs"`
		ExpiredBeforeRun  uint64 `json:"expired_before_run"`
		DeadlineExpired   uint64 `json:"deadline_expired"`
		RejectedQueueFull uint64 `json:"rejected_queue_full"`
		RejectedDraining  uint64 `json:"rejected_draining"`
	} `json:"fix"`

	Dispatch struct {
		Batches     uint64  `json:"batches"`
		BatchedJobs uint64  `json:"batched_jobs"`
		MaxBatch    int64   `json:"max_batch"`
		MeanBatch   float64 `json:"mean_batch"`
	} `json:"dispatch"`

	Queue struct {
		Depth       int64 `json:"depth"`
		InFlight    int64 `json:"in_flight"`
		MaxInFlight int   `json:"max_in_flight"`
		QueueDepth  int   `json:"queue_depth"`
		Draining    bool  `json:"draining"`
	} `json:"queue"`

	// Lint aggregates the analyzer findings served through /v1/lint,
	// keyed by rule code ("L001", ...); "other" collects codes outside
	// the registry. Zero-count rules are included so dashboards see the
	// full rule set.
	Lint struct {
		FindingsByRule map[string]uint64 `json:"findings_by_rule"`
	} `json:"lint"`

	// Fixers is the number of distinct pooled configurations.
	Fixers int `json:"fixers"`

	LatencyFixMS  metrics.HistogramSnapshot `json:"latency_fix_ms"`
	LatencyLintMS metrics.HistogramSnapshot `json:"latency_lint_ms"`

	// Cache mirrors memo.Totals(): the process-wide memoization counters
	// behind every pooled fixer. The aggregate fields are kept for
	// compatibility; Compile/Sim/Retrieval break the same counters out
	// per cache layer (memo.TotalsByKind) so each layer's effectiveness
	// is observable.
	Cache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
		Lookups   uint64 `json:"lookups"`

		Compile   CacheLayerStats `json:"compile"`
		Sim       CacheLayerStats `json:"sim"`
		Retrieval CacheLayerStats `json:"retrieval"`
	} `json:"cache"`

	// SimCheck summarizes the post-fix simulation smoke checks (zeros
	// when disabled). Watchdog counts checks canceled for blowing their
	// wall-clock/step budget — a skip, not a verdict on the fix.
	SimCheck struct {
		Checked  uint64 `json:"checked"`
		Passed   uint64 `json:"passed"`
		Failed   uint64 `json:"failed"`
		Skipped  uint64 `json:"skipped"`
		Watchdog uint64 `json:"watchdog"`
	} `json:"sim_check"`

	// Resilience is the fault-tolerance ledger: recovered panics per
	// bulkhead, breaker activity per fixer configuration, the LLM retry/
	// abort split, and brownout shedding.
	Resilience struct {
		PanicsHTTP         uint64 `json:"panics_http"`
		PanicsWorker       uint64 `json:"panics_worker"`
		BreakerRejected    uint64 `json:"breaker_rejected"`
		LLMRetriedRuns     uint64 `json:"llm_retried_runs"`
		LLMRetryRecovered  uint64 `json:"llm_retry_recovered"`
		LLMAborted         uint64 `json:"llm_aborted"`
		BrownoutLintShed   uint64 `json:"brownout_lint_shed"`
		BrownoutTracesShed uint64 `json:"brownout_traces_shed"`
		SimWatchdogTrips   uint64 `json:"sim_watchdog_trips"`
		Ready              bool   `json:"ready"`

		// Breakers holds one snapshot per pooled fixer configuration,
		// keyed "compiler/persona/mode" (rag/iters/analyze omitted from
		// the key for readability; distinct configurations that collide
		// are distinguished by a numeric suffix).
		Breakers map[string]resilience.BreakerSnapshot `json:"breakers,omitempty"`
	} `json:"resilience"`

	// Faults, present only when a fault-injection profile is installed
	// (-fault-profile), snapshots each active injection point's decision
	// and fire counters — the chaos harness asserts determinism on these.
	Faults map[string]fault.PointStats `json:"faults,omitempty"`

	// Sim, present when the sim check runs with observability on, is
	// the simulation-layer aggregate: toggle coverage of the observed
	// checks plus the compiled engine's execution-profile tallies.
	Sim *SimObsSnapshot `json:"sim,omitempty"`

	// Stages, present when tracing is on, is the per-stage latency
	// breakdown folded from finished request traces — one histogram per
	// span name (fix, queue, run, agent, iteration, compile, rag, llm,
	// sim). Keys marshal in pipeline order (trace.StageNames), so the
	// JSON object order matches the attribution table. loadgen -stages
	// renders this as a table.
	Stages trace.OrderedStages `json:"stages,omitempty"`

	// Trace, present when tracing is on, is the trace collector's
	// occupancy (ring fill, slow tier, totals).
	Trace *trace.Occupancy `json:"trace,omitempty"`
}

// CacheLayerStats is one cache layer's counters (memo.Stats, JSON-ready).
type CacheLayerStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Lookups   uint64 `json:"lookups"`
}

func cacheLayer(s memo.Stats) CacheLayerStats {
	return CacheLayerStats{Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, Lookups: s.Lookups}
}

// Stats snapshots the live counters (also what /v1/stats serves).
func (s *Server) Stats() StatsSnapshot {
	st := &s.st
	var snap StatsSnapshot
	snap.UptimeMS = msSince(s.start)

	snap.Requests.Fix = st.fixRequests.Value()
	snap.Requests.Lint = st.lintRequests.Value()
	snap.Requests.Healthz = st.healthzRequests.Value()
	snap.Requests.Readyz = st.readyzRequests.Value()
	snap.Requests.Stats = st.statsRequests.Value()

	snap.Status = make(map[string]uint64)
	for _, code := range statusCodes {
		if v := st.status[code].Value(); v > 0 {
			snap.Status[strconv.Itoa(code)] = v
		}
	}
	if v := st.statusOther.Value(); v > 0 {
		snap.Status["other"] = v
	}

	snap.Fix.OK = st.fixOK.Value()
	snap.Fix.Failed = st.fixFailed.Value()
	snap.Fix.Coalesced = st.coalesced.Value()
	snap.Fix.AgentRuns = st.agentRuns.Value()
	snap.Fix.ExpiredBeforeRun = st.expiredBeforeRun.Value()
	snap.Fix.DeadlineExpired = st.deadlineExpired.Value()
	snap.Fix.RejectedQueueFull = st.rejectedQueueFull.Value()
	snap.Fix.RejectedDraining = st.rejectedDraining.Value()

	snap.Dispatch.Batches = st.batches.Value()
	snap.Dispatch.BatchedJobs = st.batchedJobs.Value()
	snap.Dispatch.MaxBatch = st.maxBatch.Value()
	if b := snap.Dispatch.Batches; b > 0 {
		snap.Dispatch.MeanBatch = float64(snap.Dispatch.BatchedJobs) / float64(b)
	}

	snap.Queue.Depth = st.queueDepth.Value()
	snap.Queue.InFlight = st.inFlight.Value()
	snap.Queue.MaxInFlight = s.cfg.MaxInFlight
	snap.Queue.QueueDepth = s.cfg.QueueDepth
	snap.Queue.Draining = s.isDraining()

	snap.Lint.FindingsByRule = make(map[string]uint64, len(st.findingsByRule)+1)
	for code, c := range st.findingsByRule {
		snap.Lint.FindingsByRule[code] = c.Value()
	}
	if v := st.findingsOther.Value(); v > 0 {
		snap.Lint.FindingsByRule["other"] = v
	}

	snap.Fixers = s.Fixers()
	snap.LatencyFixMS = st.fixLatency.Snapshot()
	snap.LatencyLintMS = st.lintLatency.Snapshot()

	t := memo.Totals()
	snap.Cache.Hits = t.Hits
	snap.Cache.Misses = t.Misses
	snap.Cache.Evictions = t.Evictions
	snap.Cache.Lookups = t.Lookups
	byKind := memo.TotalsByKind()
	snap.Cache.Compile = cacheLayer(byKind.Compile)
	snap.Cache.Sim = cacheLayer(byKind.Sim)
	snap.Cache.Retrieval = cacheLayer(byKind.Retrieval)

	snap.SimCheck.Checked = st.simChecks.Value()
	snap.SimCheck.Passed = st.simPassed.Value()
	snap.SimCheck.Failed = st.simFailed.Value()
	snap.SimCheck.Skipped = st.simSkipped.Value()
	snap.SimCheck.Watchdog = st.simWatchdog.Value()

	snap.Resilience.PanicsHTTP = st.panicsHTTP.Value()
	snap.Resilience.PanicsWorker = st.panicsWorker.Value()
	snap.Resilience.BreakerRejected = st.breakerRejected.Value()
	snap.Resilience.LLMRetriedRuns = st.llmRetriedRuns.Value()
	snap.Resilience.LLMRetryRecovered = st.llmRetryRecovered.Value()
	snap.Resilience.LLMAborted = st.llmAborted.Value()
	snap.Resilience.BrownoutLintShed = st.brownoutLintShed.Value()
	snap.Resilience.BrownoutTracesShed = st.brownoutTracesShed.Value()
	snap.Resilience.SimWatchdogTrips = st.simWatchdog.Value()
	snap.Resilience.Ready = s.ready.Load()
	snap.Resilience.Breakers = s.breakerSnapshots()
	snap.Faults = fault.Snapshot()

	snap.Sim = s.simObs.snapshot()

	if s.stages != nil {
		snap.Stages = trace.OrderedStages(s.stages.Snapshot())
	}
	if s.tracer != nil {
		occ := s.tracer.Occupancy()
		snap.Trace = &occ
	}
	return snap
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.st.statsRequests.Inc()
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}
